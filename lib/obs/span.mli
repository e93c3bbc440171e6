(** Hierarchical timed spans.

    A span measures one named region of work; spans nest, and every
    finished span carries the nonzero {!Metrics} and {!Cost} counter
    deltas that accumulated inside it (inclusive of children).  With
    the default null sink the overhead of an un-traced span is one
    load and one pointer comparison.

    Deltas are lane-local: a span diffs the {!Counters.local} view of
    the domain it runs on, never merged process totals.  Spans opened
    concurrently in different [Par] lanes (items of [Par.map_list],
    tiles of [Par.parallel_for]) therefore see only their own work.  A
    span enclosing a parallel region stays inclusive, because [Par]
    folds each worker lane's delta into the calling domain's carry at
    region join (only while a sink is active).  A span must close on
    the domain that opened it, which any [f] that does not itself hop
    domains guarantees.  Nesting depth is tracked per domain. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** [with_ ~name f] runs [f] inside a span.  The record is delivered
    to the active {!Sink} when [f] returns {e or raises} (the
    exception is re-raised). *)

val event : ?detail:string -> string -> unit
(** Emit a point event at the current depth (e.g. a recovery action).
    No-op under the null sink. *)

val active : unit -> bool
(** [true] iff spans are currently being recorded. *)
