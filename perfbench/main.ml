(* Benchmark harness for vmor: one process, one closed-loop client
   (the next request is sent when the previous one returns). No
   [Vmor.Par] lanes are used.

     main.exe --workload reduce|transient --seed N --seconds S --trace 0|1

   The run measures a fixed number of whole cycles of the seeded
   stream, sized to [--seconds] (see gen.ml); a traced run replays
   exactly one cycle, so its counts depend on the seed alone. The
   human report goes to stderr; the last line of stdout is the JSON
   result. See README.md for every metric. *)

open Vmor
open Perfbench

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let usage () =
    prerr_endline
      "usage: main.exe --workload reduce|transient --seed N --seconds S --trace 0|1";
    exit 2
  in
  let rec go acc = function
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> go { acc with seed } rest
      | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some x when x > 0.0 -> go { acc with seconds = x } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | [] -> acc
    | _ -> usage ()
  in
  let defaults = { workload = ""; seed = 0; seconds = 10.0; trace = false } in
  let a = go defaults (List.tl (Array.to_list argv)) in
  if a.workload <> "reduce" && a.workload <> "transient" then usage ();
  a

(* ---- the run's record ---- *)

let attempted = ref 0
let failed = ref 0
let failures = ref []
let stream = ref []
let setup = ref []
(* Latency samples keyed by the request's model, so the repeated
   other-side requests of a workload can be folded per model. *)
let reduce_lat : (string * Work.sample) list ref = ref []

(* A pair, its model key, and its ROM and full times with their
   calibration runs. *)
let pairs : (Gen.family * string * Work.pair * Work.sample * Work.sample) list ref = ref []

type traced_reduction = {
  stages : Work.stage_counts;
  k3 : Work.counts;  (** the k=3 Kronecker-sum solve of the replay *)
  kept : float;  (** basis columns over raw moments *)
}

type traced_pair = { rom : Work.sim_layers; full : Work.sim_layers }

let traced_reductions = ref []
let traced_pairs = ref []

(* The first traced request of each kind is replayed once more at the
   end: every count must repeat exactly. *)
let first_reduction = ref None
let first_pair = ref None

let check what f =
  incr attempted;
  Work.request := !attempted;
  let fail msg =
    incr failed;
    failures := (what ^ ": " ^ msg) :: !failures;
    None
  in
  let result = try f () with e -> Error (Printexc.to_string e) in
  (* Outside the timed window: collect this request's garbage, so the
     next one (its order is seeded) does not pay for it. *)
  Gc.full_major ();
  Work.calibrate ();
  match result with Ok v -> Some v | Error msg -> fail msg

(* Traced run: replay a checked reduction stage by stage and the
   Kronecker-sum kernels on its model. *)
let replay_reduction q r =
  let stages = Work.span "replay" (fun () -> Work.staged q r) in
  if not (Work.bit_identical stages.Work.basis r.Mor.Atmor.basis) then
    Error "staged replay basis differs from Vmor.reduce"
  else begin
    let k3 = Work.span "ksolve" (fun () -> Work.ksolve_replay q r.Mor.Atmor.s0) in
    let kept = float_of_int (Vmor.order r) /. float_of_int r.Mor.Atmor.raw_moments in
    traced_reductions := { stages; k3; kept } :: !traced_reductions;
    if !first_reduction = None then first_reduction := Some (q, r, stages);
    Ok r
  end

let reduce_one ~trace (spec : Gen.model_spec) q =
  let what = Gen.describe_spec spec in
  stream := what :: !stream;
  check what @@ fun () ->
  let r, wall =
    Obs.Clock.time (fun () -> Work.span "vmor.reduce" (fun () -> Work.reduce spec q))
  in
  match Work.check_reduction spec r with
  | Error _ as e -> e
  | Ok () ->
    reduce_lat := (what, Work.sample wall) :: !reduce_lat;
    if trace then replay_reduction q r else Ok r

let pair_one ~trace ~model family ~full ~rom (d : Gen.drive) =
  let what = Gen.describe_drive family d in
  stream := what :: !stream;
  let rom_first = !attempted mod 2 = 0 in
  check what @@ fun () ->
  match Work.pair ~rom_first family ~full ~rom d with
  | Error _ as e -> e
  | Ok p ->
    pairs := (family, model, p, Work.sample p.Work.rom_s, Work.sample p.Work.full_s) :: !pairs;
    if trace then begin
      let rom_l = Work.sim_replay ~prefix:"rom." family rom d in
      let full_l = Work.sim_replay ~prefix:"full." family full d in
      traced_pairs := ({ rom = rom_l; full = full_l }, p) :: !traced_pairs;
      if !first_pair = None then first_pair := Some (family, rom, d, rom_l)
    end;
    Ok ()

let n_cycles args ~cycle_seconds =
  if args.trace then 1 else Gen.cycles ~seconds:args.seconds ~cycle_seconds

(* Runs cycles [0 .. cycles-1]. [run_cycle c] returns its request count
   and the set-up time to leave out; [between c] runs after cycle [c],
   outside the measured time. It spreads the other side's repeated
   requests over the run, so their fastest repeat does not hinge on one
   stretch of the host's speed. *)
let cycles_loop ~cycles ~between run_cycle =
  let measured = ref 0.0 and ops = ref 0 in
  let (), loop =
    Work.timed (fun () ->
        for c = 0 to cycles - 1 do
          let (n, excluded), s = Work.timed (fun () -> run_cycle c) in
          measured := !measured +. s.Work.wall -. excluded;
          ops := !ops + n;
          between c
        done)
  in
  log "measured %d cycles, %d requests in %.3f s" cycles !ops !measured;
  (* requests per second, and the calibration runs that bracket them *)
  (!ops, { loop with Work.wall = !measured })

(* [reduce]: every request is one Vmor.reduce. Set-up builds a cycle's
   models, three times (the median is reported). The paper circuits at
   the smallest size are reduced up front, and their ROMs are checked
   against the full models on the paper-figure inputs before the first
   cycle and after every cycle. *)
let run_reduce args =
  let rng = Gen.rng ~seed:args.seed ~stream:"reduce" in
  let n = List.fold_left min max_int Gen.reduce_sizes in
  let paper =
    List.filter_map
      (fun family ->
        let spec = { Gen.family; n; coeff = 1.0 } in
        let q = Gen.build spec in
        check (Gen.describe_spec spec ^ " paper circuit") (fun () ->
            let r = Work.reduce spec q in
            Result.map (fun () -> (family, q, Vmor.rom r)) (Work.check_reduction spec r)))
      Gen.families
  in
  let validate () =
    List.iter
      (fun (family, full, rom) ->
        ignore
          (pair_one ~trace:args.trace ~model:(Gen.family_name family) family ~full ~rom
             (Gen.paper_drive family)))
      paper
  in
  validate ();
  cycles_loop
    ~cycles:(n_cycles args ~cycle_seconds:Gen.reduce_cycle_seconds)
    ~between:(fun _ -> validate ())
  @@ fun _ ->
    let specs = Gen.reduce_cycle rng in
    let models = ref [] and excluded = ref 0.0 in
    for _ = 1 to 3 do
      let m, s = Work.timed (fun () -> List.map (fun s -> (s, Gen.build s)) specs) in
      setup := s :: !setup;
      excluded := !excluded +. s.Work.wall;
      models := m
    done;
    List.iter (fun (spec, q) -> ignore (reduce_one ~trace:args.trace spec q)) !models;
    (List.length specs, !excluded)

(* [transient]: set-up builds and reduces one model per slot of
   [Gen.transient_mix], before the first cycle and again after every
   cycle but the last (the median is reported; the first set-up's ROMs
   serve the run). Every request is one seeded input through the ROM
   and through the full model. *)
let run_transient args =
  let rng = Gen.rng ~seed:args.seed ~stream:"transient" in
  let specs = Gen.transient_models rng in
  let cycles = n_cycles args ~cycle_seconds:Gen.transient_cycle_seconds in
  let stream = Array.of_list (Gen.transient_stream rng ~cycles) in
  let set_up () =
    let b, s =
      Work.timed (fun () ->
          Array.of_list
            (List.map
               (fun (spec : Gen.model_spec) ->
                 let q = Gen.build spec in
                 reduce_one ~trace:args.trace spec q
                 |> Option.map (fun r -> (q, Vmor.rom r)))
               specs))
    in
    setup := s :: !setup;
    b
  in
  let built = set_up () in
  cycles_loop ~cycles ~between:(fun c -> if c < cycles - 1 then ignore (set_up ()))
  @@ fun c ->
  List.iter
    (fun (req : Gen.transient_req) ->
      match built.(req.slot) with
      | Some (full, rom) ->
        ignore
          (pair_one ~trace:args.trace ~model:(string_of_int req.slot) req.t_family ~full
             ~rom req.drive)
      | None ->
        ignore
          (check (Gen.describe_drive req.t_family req.drive) (fun () -> Error "no ROM")))
    stream.(c);
  (List.length stream.(c), 0.0)

(* ---- metrics ---- *)

let sum = List.fold_left ( +. ) 0.0
let mean_or_zero = function [] -> 0.0 | xs -> Stats.mean xs

let latency ~report name xs =
  let p, t = Stats.tail xs in
  if report then
    log "%-14s p50 %.4f s, tail p%d %.4f s (%d samples, %d beyond the tail)" name
      (Stats.median xs) p t (List.length xs) (Stats.beyond xs t);
  (Stats.median xs, t)

(* The latency samples of [keyed]; with [per_model], one sample per
   model: the fastest of its repeated, identical requests (contention on
   the host only ever slows a request down). The other side of each
   workload repeats a few models, and a median over a handful of single
   timings of different models would swing with the host's noise. *)
let samples ~per_model keyed =
  if not per_model then List.map snd keyed
  else
    List.map
      (fun k ->
        List.fold_left
          (fun m (k', v) -> if k = k' then Float.min m v else m)
          Float.infinity keyed)
      (List.sort_uniq compare (List.map fst keyed))

(* Every end-to-end metric, with each measured time converted by
   [time]: [Work.reference] for the result, the wall for the report. *)
let end_to_end ~workload ~ops ~loop ~time ~report =
  let on_reduce = workload = "reduce" in
  let lat name ~per_model keyed =
    let name = if per_model then name ^ "/model" else name in
    latency ~report name (samples ~per_model (List.map (fun (k, s) -> (k, time s)) keyed))
  in
  let red_p50, red_tail = lat "reduce" ~per_model:(not on_reduce) !reduce_lat in
  let rom_p50, rom_tail =
    lat "rom" ~per_model:on_reduce (List.map (fun (_, k, _, r, _) -> (k, r)) !pairs)
  in
  let full_p50, full_tail =
    lat "full" ~per_model:on_reduce (List.map (fun (_, k, _, _, f) -> (k, f)) !pairs)
  in
  let sum_of f = sum (List.map (fun (_, _, p, _, _) -> f p) !pairs) in
  [
    ("setup_s", Stats.median (List.map time !setup));
    ("ops_per_s", float_of_int ops /. time loop);
    ("success_frac", 1.0 -. (float_of_int !failed /. float_of_int !attempted));
    ( "peak_heap_mb",
      float_of_int ((Obs.Prof.take ()).Obs.Prof.top_heap_words * (Sys.word_size / 8))
      /. 131072.0 );
    ("reduce_p50_s", red_p50);
    ("reduce_tail_s", red_tail);
    ("rom_p50_s", rom_p50);
    ("rom_tail_s", rom_tail);
    ("full_p50_s", full_p50);
    ("full_tail_s", full_tail);
    ("rom_speedup", sum_of (fun p -> p.Work.full_s) /. sum_of (fun p -> p.Work.rom_s));
    ( "max_rel_error",
      List.fold_left (fun m (_, _, p, _, _) -> Float.max m p.Work.error) 0.0 !pairs );
  ]

let reduce_layers () =
  let self = Work.self_times () in
  let rs = !traced_reductions in
  let n = float_of_int (List.length rs) in
  let per_req name = Work.self_time self name /. n in
  let stage_names =
    [ "assoc.create"; "assoc.h1"; "assoc.h2"; "assoc.h3"; "qr.orth"; "qldae.project" ]
  in
  let staged = sum (List.map (Work.self_time self) stage_names) in
  let plain = Work.self_time self "vmor.reduce" in
  let replay = staged +. Work.self_time self "replay" in
  let mean f = sum (List.map f rs) /. n in
  let total f = sum (List.map f rs) in
  let h2 r = r.stages.Work.h2 and h3 r = r.stages.Work.h3 in
  let event c r = Work.event c r.stages.Work.all in
  let open Obs.Cost in
  let k3_flops = total (fun r -> float_of_int (total_flops r.k3.Work.cost)) in
  List.map (fun s -> (s ^ "_s", per_req s)) stage_names
  @ [
      ("atmor.self_s", (plain -. staged) /. n);
      ("assoc.h3.flops_trisolve", mean (fun r -> Work.cost Flops_trisolve (h3 r)));
      ("assoc.h3.flops_tensor", mean (fun r -> Work.cost Flops_tensor (h3 r)));
      ("assoc.h2.flops_trisolve", mean (fun r -> Work.cost Flops_trisolve (h2 r)));
      ("assoc.h2.flops_tensor", mean (fun r -> Work.cost Flops_tensor (h2 r)));
      ("assoc.h3.bytes", mean (fun r -> 8.0 *. Work.cost_bytes (h3 r)));
      ("assoc.h3.minor_words", mean (fun r -> (h3 r).Work.minor_words));
      ("shifted_solve", mean (event Obs.Metrics.Shifted_solve));
      ("lu_solve", mean (event Obs.Metrics.Lu_solve));
      ("ladder_attempt", mean (event Obs.Metrics.Ladder_attempt));
      ( "ladder.retry_ratio",
        total (event Obs.Metrics.Ladder_attempt) /. total (event Obs.Metrics.Lu_solve) );
      ("qr.kept_ratio", mean (fun r -> r.kept));
      ("ksolve.prepare_s", per_req "ksolve.prepare");
      ("ksolve.solve_k2_s", per_req "ksolve.solve_k2");
      ("ksolve.solve_k3_s", per_req "ksolve.solve_k3");
      ("ksolve.k3_gflops", k3_flops /. Work.self_time self "ksolve.solve_k3" /. 1e9);
      ( "ksolve.k3_flops_per_byte",
        k3_flops /. total (fun r -> 8.0 *. Work.cost_bytes r.k3) );
      ("reduce.coverage", staged /. plain);
      ("reduce.trace_overhead", (replay -. plain) /. plain);
    ]

let sim_layers prefix (pick : traced_pair -> Work.sim_layers) plain_s =
  let ps = List.map (fun (t, p) -> (pick t, plain_s p)) !traced_pairs in
  let ls = List.map fst ps in
  let n = float_of_int (List.length ls) in
  let mean f = sum (List.map f ls) /. n in
  let stat f = mean (fun l -> float_of_int (f l.Work.stats)) in
  let opt_mean f = mean_or_zero (List.filter_map f ls) in
  let open Ode.Types in
  let kernel_s l =
    (float_of_int l.Work.stats.rhs_evals *. l.Work.rhs_us)
    +. (float_of_int l.Work.stats.jac_evals *. l.Work.jac_us)
  in
  let simulated = sum (List.map (fun l -> l.Work.simulate_s) ls) in
  let plain = sum (List.map snd ps) in
  List.map
    (fun (name, v) -> (prefix ^ name, v))
    [
      ("simulate_s", simulated /. n);
      ("ode_steps", stat (fun s -> s.steps));
      ("ode_rejected", stat (fun s -> s.rejected));
      ("rhs_evals", stat (fun s -> s.rhs_evals));
      ("jac_evals", stat (fun s -> s.jac_evals));
      ("newton_iters", stat (fun s -> s.newton_iters));
      ( "accept_ratio",
        sum (List.map (fun l -> float_of_int l.Work.stats.steps) ls)
        /. sum (List.map (fun l -> float_of_int (l.Work.stats.steps + l.Work.stats.rejected)) ls)
      );
      ("rhs_us", mean (fun l -> l.Work.rhs_us));
      ("g2_apply_us", opt_mean (fun l -> l.Work.g2_us));
      ("g3_apply_us", opt_mean (fun l -> l.Work.g3_us));
      ("jacobian_us", mean (fun l -> l.Work.jac_us));
      ("lu.factor_us", opt_mean (fun l -> Option.map fst l.Work.lu_us));
      ("lu.solve_us", opt_mean (fun l -> Option.map snd l.Work.lu_us));
      ( "rhs_share",
        sum (List.map (fun l -> float_of_int l.Work.stats.rhs_evals *. l.Work.rhs_us) ls)
        *. 1e-6 /. simulated );
      ("stepper_self_s", mean (fun l -> l.Work.simulate_s -. (kernel_s l *. 1e-6)));
      ("minor_words", mean (fun l -> l.Work.sim_counts.Work.minor_words));
      ("flops_ode_rhs", mean (fun l -> Work.cost Flops_ode_rhs l.Work.sim_counts));
      ("flops_stepper", mean (fun l -> Work.cost Flops_stepper l.Work.sim_counts));
      ("trace_overhead", (simulated -. plain) /. plain);
    ]

let is_count name =
  List.mem (Names.unit_of name) [ "count"; "flop"; "B"; "words" ]

(* Replays the first traced request of each kind with tracing off and
   compares every count with the first replay. *)
let counts_repeat () =
  let reduction_ok =
    match !first_reduction with
    | None -> false
    | Some (q, r, st) ->
      let again = Work.staged q r in
      again.Work.h2 = st.Work.h2
      && again.Work.h3 = st.Work.h3
      && again.Work.all.Work.cost = st.Work.all.Work.cost
      && again.Work.all.Work.events = st.Work.all.Work.events
  in
  let pair_ok =
    match !first_pair with
    | None -> false
    | Some (family, rom, d, l) ->
      let again = Work.sim_replay ~prefix:"repeat." family rom d in
      again.Work.stats = l.Work.stats && again.Work.sim_counts = l.Work.sim_counts
  in
  reduction_ok && pair_ok

(* Per-layer times are reported in reference seconds at the run's
   speed factor: a wall time is multiplied by it, a rate divided. *)
let to_reference factor (name, v) =
  match Names.unit_of name with
  | "s" | "us" -> (name, v *. factor)
  | "1/s" | "Gflop/s" -> (name, v /. factor)
  | _ -> (name, v)

(* [metrics] in reference units, [measured] the same with wall
   times. *)
let print_result ~correct metrics measured =
  let factor = Work.speed_factor () in
  log "run speed factor %.4f (calibration mean %.5f s over %d samples)" factor
    (Work.calibration_nominal_s /. factor)
    (Work.calibration_count ());
  List.iter2
    (fun (name, v) (_, wall) ->
      log "%-28s %.6g %s (wall %.6g)" name v (Names.unit_of name) wall)
    metrics measured;
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
             (if Float.is_finite v then v else 0.0)
             (Names.unit_of name))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite) !attempted !failed body

let () =
  let args = parse Sys.argv in
  for _ = 1 to 3 do
    Work.calibrate ()
  done;
  Work.tracing := args.trace;
  let ops, loop =
    match args.workload with "reduce" -> run_reduce args | _ -> run_transient args
  in
  log "stream digest %s (%d requests)" (Gen.digest (List.rev !stream))
    (List.length !stream);
  List.iter (fun f -> log "FAILED %s" f) (List.rev !failures);
  List.iter
    (fun family ->
      let ps =
        List.filter_map (fun (f, _, p, _, _) -> if f = family then Some p else None) !pairs
      in
      if ps <> [] then
        log "%-9s rom %.4f s, full %.4f s (median of %d), worst error %.3g"
          (Gen.family_name family)
          (Stats.median (List.map (fun p -> p.Work.rom_s) ps))
          (Stats.median (List.map (fun p -> p.Work.full_s) ps))
          (List.length ps)
          (List.fold_left (fun m p -> Float.max m p.Work.error) 0.0 ps))
    Gen.families;
  if !reduce_lat = [] || !pairs = [] then begin
    log "no successful request of some kind; no metrics";
    exit 1
  end;
  if not args.trace then begin
    let metrics ~time ~report =
      end_to_end ~workload:args.workload ~ops ~loop ~time ~report
    in
    print_result ~correct:(!failed = 0)
      (metrics ~time:Work.reference ~report:true)
      (metrics ~time:(fun s -> s.Work.wall) ~report:false)
  end
  else begin
    Work.tracing := false;
    let metrics =
      reduce_layers ()
      @ sim_layers "rom." (fun t -> t.rom) (fun p -> p.Work.rom_s)
      @ sim_layers "full." (fun t -> t.full) (fun p -> p.Work.full_s)
    in
    let repeat = counts_repeat () in
    log "counts repeat exactly on replay: %b" repeat;
    log "counts digest %s"
      (Gen.digest
         (List.filter_map
            (fun (name, v) ->
              if is_count name then Some (Printf.sprintf "%s=%h" name v) else None)
            metrics));
    (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".bench_out/%s-%d.spans.jsonl" args.workload args.seed in
    Work.write_spans path;
    log "spans written to %s" path;
    print_result ~correct:(!failed = 0 && repeat)
      (List.map (to_reference (Work.speed_factor ())) metrics)
      metrics
  end
