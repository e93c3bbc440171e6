(** Process-wide kernel counters, gauges and histograms.

    Counters attribute reduction/simulation cost to the kernels the
    paper's complexity claims are stated in: LU factorizations,
    shifted Kronecker-sum solves, matrix-vector products, Krylov
    (Arnoldi) iterations, deflation discards, ODE steps/rejections,
    Newton iterations and recovery-ladder attempts.

    The counters live in the shared {!Counters} registry (indices
    [0..11]), which makes them domain-safe and exact after
    [Domain.join]; [Counters.set_enabled false] makes every recording
    operation here a no-op, giving benchmarks an uninstrumented
    baseline. *)

type counter =
  | Lu_factor          (** dense LU factorizations ([La.Lu.factor]) *)
  | Lu_solve           (** triangular solves against an LU factor *)
  | Shifted_solve      (** shifted Kronecker-sum solves ([La.Ksolve]) *)
  | Matvec             (** dense matrix-vector products on Krylov paths *)
  | Arnoldi_iter       (** Arnoldi/MGS iterations *)
  | Deflation_discard  (** basis candidates dropped by QR deflation *)
  | Ode_step           (** accepted integrator steps *)
  | Ode_rejected       (** rejected/halved integrator steps *)
  | Newton_iter        (** Newton iterations inside implicit integrators *)
  | Ladder_attempt     (** solver fallback-ladder rung executions *)
  | Recovery_event     (** events recorded via [Robust.Report] *)
  | Budget_poll        (** slow-path budget polls ([Robust.Budget]) *)

val all : counter list
(** Every counter, in rendering order. *)

val name : counter -> string
(** Stable snake_case name used in every sink format. *)

val index : counter -> int
(** Slot in the {!Counters} registry, in [[0, 12)]. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to a counter; no-op when disabled. *)

val get : counter -> int

val set_gauge : string -> float -> unit
(** Record a last-write-wins named value (e.g. ["reduced_order"]). *)

val gauges : unit -> (string * float) list
(** All gauges, sorted by name. *)

type hstat = { count : int; sum : float; sumsq : float;
               minv : float; maxv : float }
(** Summary view of one named histogram.  Backed by {!Qhist}: the full
    bucketed distribution (and its deterministic quantiles) is
    available through [Qhist.view] under the same name. *)

val observe : string -> float -> unit
(** Feed one observation into the named histogram (a {!Qhist}
    observation on the calling domain's accumulator). *)

val histograms : unit -> (string * hstat) list
(** All histograms, merged across domains, sorted by name. *)

val hstddev : hstat -> float
(** Population standard deviation from [sum]/[sumsq], clamped at zero
    against cancellation; [nan] when [count = 0]. *)

type snapshot

val snapshot : unit -> snapshot
(** Capture current merged counter values (one locked merge pass). *)

val since : snapshot -> (counter * int) list
(** Counter deltas accumulated after [snapshot], nonzero ones only. *)

val reset : unit -> unit
(** Zero every registry counter ({!Cost}'s included) and drop all
    gauges/histograms. *)

val to_csv_string : unit -> string
(** CSV summary: [kind,name,value,count,sum,sumsq,min,max,stddev]
    rows — counters and gauges fill [value], histograms fill the
    per-stat columns. *)

val write_csv : string -> unit
(** Write {!to_csv_string} to a file. *)

val render_table : unit -> string
(** Human-readable table (the [--metrics] / [VMOR_METRICS=1] output). *)
