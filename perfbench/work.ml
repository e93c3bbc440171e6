(* The benchmark's operations, their correctness checks and the traced
   replays that break them into layers. Everything here calls the
   library through its public modules only. *)

open Vmor
module Q = Volterra.Qldae

(* ---- spans: the harness brackets its own calls into each layer ---- *)

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  req : int;  (** request the span belongs to *)
  name : string;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let finished : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let request = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = Obs.Clock.now () in
    let close () =
      open_spans := List.tl !open_spans;
      let s = { id; parent; req = !request; name; t0; t1 = Obs.Clock.now () } in
      finished := s :: !finished
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Self time per span name: each span's duration minus the part its
   direct children cover. *)
let self_times () : (string, float) Hashtbl.t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !finished;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let own = s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    !finished;
  self

let self_time tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":\"%s\",\"start_s\":%.9f,\
         \"dur_s\":%.9f}\n"
        s.id s.parent s.req s.name s.t0 (s.t1 -. s.t0))
    (List.rev !finished);
  close_out oc

(* ---- deterministic counters around a call ---- *)

type counts = {
  cost : (Obs.Cost.counter * int) list;
  events : (Obs.Metrics.counter * int) list;
  minor_words : float;
}

let counted f =
  let c0 = Obs.Cost.snapshot () and m0 = Obs.Metrics.snapshot () in
  let g0 = Obs.Prof.take () in
  let v = f () in
  let g = Obs.Prof.since g0 in
  ( v,
    {
      cost = Obs.Cost.since c0;
      events = Obs.Metrics.since m0;
      minor_words = g.Obs.Prof.minor_words;
    } )

let cost c k = float_of_int (Option.value ~default:0 (List.assoc_opt c k.cost))
let event c k = float_of_int (Option.value ~default:0 (List.assoc_opt c k.events))

let cost_bytes k = cost Obs.Cost.Bytes_read k +. cost Obs.Cost.Bytes_written k

(* ---- reduce ---- *)

let reduce (spec : Gen.model_spec) q =
  Vmor.reduce
    ~options:(Vmor.Options.make ?s0:(Gen.s0 spec.Gen.family) ())
    ~orders:(Gen.orders spec.Gen.family) q

let orthonormality_defect (v : La.Mat.t) =
  let g = La.Mat.mul (La.Mat.transpose v) v in
  La.Mat.max_abs (La.Mat.sub g (La.Mat.identity (La.Mat.cols v)))

(* Per-request checks of a reduction. *)
let check_reduction (spec : Gen.model_spec) (r : Vmor.reduction) =
  let basis = r.Mor.Atmor.basis in
  if Robust.Report.degraded (Vmor.degradation r) then Error "degraded reduction"
  else if r.Mor.Atmor.orders <> Gen.orders spec.Gen.family then
    Error "realized orders differ from the request"
  else if not (La.Vec.is_finite (La.Mat.data basis)) then Error "non-finite basis"
  else if orthonormality_defect basis > 1e-9 then Error "basis not orthonormal"
  else Ok ()

(* Stage-by-stage replay of [Atmor.reduce] at the expansion point the
   reduction used. Returns the basis and the count deltas of each
   stage; the spans sit outside the counted regions, so the counts are
   the same traced or not ([all] brackets the spans too, so only its
   cost and event counts are used). *)
type stage_counts = {
  h2 : counts;
  h3 : counts;
  all : counts;
  basis : La.Mat.t;
}

let staged q (r : Vmor.reduction) =
  let o = r.Mor.Atmor.orders in
  let stage name k f =
    if k = 0 then ([], { cost = []; events = []; minor_words = 0.0 })
    else span name (fun () -> counted f)
  in
  let (basis, h2, h3), all =
    counted @@ fun () ->
    let eng =
      span "assoc.create" (fun () -> Volterra.Assoc.create ~s0:r.Mor.Atmor.s0 q)
    in
    let m1, _ = stage "assoc.h1" o.k1 (fun () -> Volterra.Assoc.h1_moments eng ~k:o.k1) in
    let m2, h2 =
      stage "assoc.h2" o.k2 (fun () -> Volterra.Assoc.h2_moments eng ~k:o.k2)
    in
    let m3, h3 =
      stage "assoc.h3" o.k3 (fun () ->
          Volterra.Assoc.h3_moments ~triples_mode:`All eng ~k:o.k3)
    in
    let basis =
      span "qr.orth" (fun () ->
          La.Qr.orth_mat ~tol:Vmor.Options.default.Vmor.Options.tol (m1 @ m2 @ m3))
    in
    ignore (span "qldae.project" (fun () -> Q.project q basis));
    (basis, h2, h3)
  in
  { h2; h3; all; basis }

let bit_identical (a : La.Mat.t) (b : La.Mat.t) =
  La.Mat.dims a = La.Mat.dims b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (La.Mat.data a) (La.Mat.data b)

(* Kronecker-sum kernel replay on the request's own G1 and s0; returns
   the counts of the k=3 solve. *)
let ksolve_replay (q : Q.t) s0 =
  let n = Q.dim q in
  let ks = span "ksolve.prepare" (fun () -> La.Ksolve.prepare q.Q.g1) in
  let rhs len = Array.init len (fun i -> sin (float_of_int (i + 1))) in
  let v2 = rhs (n * n) and v3 = rhs (n * n * n) in
  ignore
    (span "ksolve.solve_k2" (fun () -> La.Ksolve.solve_shifted_real ks ~k:2 ~sigma:s0 v2));
  snd
    (span "ksolve.solve_k3" (fun () ->
         counted (fun () -> La.Ksolve.solve_shifted_real ks ~k:3 ~sigma:s0 v3)))

(* ---- transient ---- *)

let samples = 201

type pair = { rom_s : float; full_s : float; error : float }

(* Absolute ceilings on the worst relative ROM-vs-full output error of
   one request (error at each sample over the peak of the full
   output). Each sits six to twenty times above the worst error
   measured over the drive ranges of gen.ml, and none depends on a
   baseline. *)
let error_ceiling = function
  | Gen.Nltl_v -> 5e-3
  | Gen.Nltl_i -> 2e-3
  | Gen.Rf -> 5e-4
  | Gen.Varistor -> 5e-2

(* One request: the same input through the ROM and the full model. The
   one simulated first alternates with [rom_first], so neither always
   runs on cold caches. *)
let pair ~rom_first family ~(full : Q.t) ~(rom : Q.t) (d : Gen.drive) =
  let input = Gen.input family d and solver = Gen.solver family and t1 = Gen.t1 family in
  let sim q =
    Obs.Clock.time (fun () -> snd (Vmor.transient ?solver ~samples q ~input ~t1))
  in
  let (yr, rom_s), (yf, full_s) =
    if rom_first then
      let r = sim rom in
      (r, sim full)
    else
      let f = sim full in
      (sim rom, f)
  in
  let complete y = Array.length y = samples && Array.for_all Float.is_finite y in
  if not (complete yr && complete yf) then Error "non-finite or partial transient"
  else
    let error = Waves.Metrics.max_relative_error ~reference:yf ~approx:yr in
    if error > error_ceiling family then
      Error
        (Printf.sprintf "error %.3g above the %s ceiling" error (Gen.family_name family))
    else Ok { rom_s; full_s; error }

(* Traced replay of one transient: a direct [Qldae.simulate] with its
   solver statistics and counters, then the RHS-layer kernels timed on
   states sampled from that trajectory. *)
type sim_layers = {
  simulate_s : float;
  stats : Ode.Types.stats;
  sim_counts : counts;
  rhs_us : float;
  g2_us : float option;
  g3_us : float option;
  jac_us : float;
  lu_us : (float * float) option;  (** factor, solve *)
}

(* Mean wall per call of [f] over [states], repeated for at least
   20 ms. *)
let per_call_us name states f =
  span name @@ fun () ->
  let t0 = Obs.Clock.now () in
  let calls = ref 0 in
  while !calls < 3 * Array.length states || Obs.Clock.now () -. t0 < 0.02 do
    Array.iter (fun s -> ignore (Sys.opaque_identity (f s))) states;
    calls := !calls + Array.length states
  done;
  (Obs.Clock.now () -. t0) /. float_of_int !calls *. 1e6

let sim_replay ~prefix family (q : Q.t) (d : Gen.drive) =
  let input = Gen.input family d and solver = Gen.solver family in
  let (sol, simulate_s), sim_counts =
    span (prefix ^ "simulate") (fun () ->
        counted (fun () ->
            Obs.Clock.time (fun () ->
                Q.simulate ?solver q ~input ~t0:0.0 ~t1:(Gen.t1 family) ~samples)))
  in
  let times = sol.Ode.Types.times and states = sol.Ode.Types.states in
  let picked =
    Array.init (Array.length states / 10) (fun i ->
        let j = 10 * (i + 1) in
        (states.(j), input times.(j)))
  in
  let kernel name f = per_call_us (prefix ^ name) picked f in
  let rhs_us = kernel "rhs" (fun (x, u) -> Q.rhs q x u) in
  let apply name present g =
    if present then Some (kernel name (fun (x, _) -> La.Sptensor.apply_pow g x)) else None
  in
  let g2_us = apply "g2_apply" (Q.has_g2 q) q.Q.g2 in
  let g3_us = apply "g3_apply" (Q.has_g3 q) q.Q.g3 in
  let jac_us = kernel "jacobian" (fun (x, u) -> Q.jacobian q x u) in
  let lu_us =
    match solver with
    | Some (Q.Imtrap h) ->
      let iteration (x, u) =
        let j = Q.jacobian q x u in
        La.Mat.sub (La.Mat.identity (Q.dim q)) (La.Mat.scale (0.5 *. h) j)
      in
      let mats = Array.map (fun s -> (iteration s, fst s)) picked in
      let factor =
        per_call_us (prefix ^ "lu.factor") mats (fun (m, _) -> La.Lu.factor m)
      in
      let lus = Array.map (fun (m, x) -> (La.Lu.factor m, x)) mats in
      let solve = per_call_us (prefix ^ "lu.solve") lus (fun (f, x) -> La.Lu.solve f x) in
      Some (factor, solve)
    | Some (Q.Rk4 _ | Q.Rkf45 _) | None -> None
  in
  {
    simulate_s;
    stats = sol.Ode.Types.stats;
    sim_counts;
    rhs_us;
    g2_us;
    g3_us;
    jac_us;
    lu_us;
  }

(* ---- host-speed calibration ----

   The benchmark host is shared: the same work can take up to twice as
   long from one second to the next, and whole minutes run uniformly
   faster or slower. A fixed kernel that does not call the library --
   streaming float updates over 512 KiB plus short-lived small arrays,
   the two kinds of work the layers under test do -- is timed after
   every request. Its mean time around a measurement gives the speed
   factor that rescales the measurement to a host on which the kernel
   takes [calibration_nominal_s]. A change to the library cannot move
   this factor; a change in host speed moves both alike. *)

let calibration_nominal_s = 0.01
let calibration_data = Array.make 65536 1.0
let calibration_samples = ref []

let calibrate () =
  let t0 = Obs.Clock.now () in
  let a = calibration_data in
  for _ = 1 to 48 do
    for i = 0 to Array.length a - 1 do
      a.(i) <- (a.(i) *. 0.5) +. 0.5
    done
  done;
  let keep = ref [] in
  for i = 1 to 240_000 do
    let v = Array.make 8 (float_of_int i) in
    if i land 32767 = 0 then keep := v :: !keep
  done;
  ignore (Sys.opaque_identity !keep);
  calibration_samples := (Obs.Clock.now () -. t0) :: !calibration_samples

let calibration_count () = List.length !calibration_samples

(* Multiplier that turns a wall time into reference seconds, from the
   calibration runs numbered [lo, hi) (clamped to those taken). Call it
   once the run has ended. *)
let factor_between lo hi =
  let a = Array.of_list (List.rev !calibration_samples) in
  let lo = max 0 lo and hi = min (Array.length a) hi in
  let xs = if lo < hi then Array.sub a lo (hi - lo) else a in
  calibration_nominal_s /. (Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs))

let speed_factor () = factor_between 0 max_int

(* A wall time with the calibration runs around it: from two before it
   to two after the one that follows it. The host's speed drifts
   within seconds, so a measurement is rescaled by the kernel's speed
   next to it rather than by the run's average. *)
type sample = { wall : float; lo : int; hi : int }

let sample ?(first = calibration_count ()) wall =
  { wall; lo = first - 2; hi = calibration_count () + 3 }

let reference s = s.wall *. factor_between s.lo s.hi

(* [Obs.Clock.time f] minus the calibration runs inside [f]. *)
let timed f =
  let spent () = List.fold_left ( +. ) 0.0 !calibration_samples in
  let c0 = spent () and first = calibration_count () in
  let v, dt = Obs.Clock.time f in
  (v, sample ~first (dt -. (spent () -. c0)))
