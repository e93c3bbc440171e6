(** The one counter registry behind {!Metrics} and {!Cost}.

    Each domain accumulates into its own flat int array held in a
    [Domain.DLS] slot: {!Metrics} counters at indices [0..11], {!Cost}
    counters at [12..23].  Readers merge every registered per-domain
    array under one mutex; after [Domain.join] the merged totals are
    exact, and while other domains still run a read observes some
    interleaving of word-sized stores, never a torn value.

    Instrumentation sites use [Metrics.incr] / [Cost.charge]; this
    module is the storage they share, the single counting flag, and
    the lane-local view {!Span} diffs.

    {b Lane-local view.}  Besides its own counts, each domain's array
    holds a {e carry}: counts that worker lanes of a [Par] region
    produced on the calling domain's behalf, folded in at region join
    ({!carry}).  The carry is part of {!local} but not of {!merged},
    so merged totals count every tick once, while a span that diffs
    {!local} on its own domain is exact under concurrency and still
    inclusive of the parallel regions it encloses. *)

val enabled : bool Atomic.t
(** The counting flag, read directly by the [incr]/[charge] hot
    paths.  Use {!set_enabled} to flip it. *)

val slot : int array Domain.DLS.key
(** The calling domain's array: its own counts at [[0, 24)], its
    carry at [[24, 48)].  Only the owning domain writes it. *)

val set_enabled : bool -> unit
(** [set_enabled false] turns every [Metrics]/[Cost] recording
    operation into a no-op — the genuinely uninstrumented baseline
    for the overhead benchmark.  Counting is on by default. *)

val merged : unit -> int array
(** Process-wide totals (own counts of every domain, carries
    excluded), one locked merge pass. *)

val reset : unit -> unit
(** Zero every registered per-domain array, carries included. *)

val local : unit -> int array
(** The calling domain's view: own counts plus carry.  No lock, no
    merge. *)

val local_since : int array -> int array
(** [local () - snap], elementwise.  Meaningful only on the domain
    that took [snap]. *)

val carry : int array -> unit
(** Add a {!local_since} delta taken on another domain to the calling
    domain's carry. *)

val nonzero : ('c -> int) -> 'c list -> int array -> int array -> ('c * int) list
(** [nonzero index cs before after]: the nonzero [after - before]
    deltas of the counters [cs], in list order. *)
