(* Numerical-health telemetry (PR 4): Arnoldi orthogonality tracking,
   condition estimators, a-posteriori moment residuals, trace analysis
   round-trips. *)

open La
open Volterra

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [f] with an in-memory sink active, restore the null sink, and
   return (result, captured records). *)
let with_memory_sink f =
  let sink, captured = Obs.Sink.memory () in
  Obs.Sink.set sink;
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
    (fun () ->
      let r = f () in
      (r, captured ()))

let health_events (captured : Obs.Sink.captured) =
  List.filter_map
    (fun (e : Obs.Sink.event_record) ->
      Obs.Health.of_event ~name:e.Obs.Sink.name ~detail:e.Obs.Sink.detail)
    captured.Obs.Sink.events

let arnoldi_losses captured =
  List.filter_map
    (function
      | Obs.Health.Arnoldi { iteration; ortho_loss; _ } ->
        Some (iteration, ortho_loss)
      | _ -> None)
    (health_events captured)

let rec nondecreasing = function
  | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
  | _ -> true

let stable_random n =
  let rng = Random.State.make [| 314; n |] in
  Mat.sub (Mat.scale 0.3 (Mat.random ~rng n n)) (Mat.scale 1.5 (Mat.identity n))

(* ---- Arnoldi orthogonality loss ---- *)

let test_ortho_monotone () =
  let n = 30 in
  let a = stable_random n in
  let rng = Random.State.make [| 7 |] in
  let b = Mat.random_vec ~rng n in
  let r, captured =
    with_memory_sink (fun () ->
        Mor.Arnoldi.run ~matvec:(Mat.mul_vec a) ~b ~k:12 ())
  in
  let losses = arnoldi_losses captured in
  check_bool "one record per iteration" true
    (List.length losses >= Mat.cols r.Mor.Arnoldi.v - 1);
  check_bool "iterations increase" true
    (nondecreasing (List.map (fun (i, _) -> float_of_int i) losses));
  check_bool "running max is nondecreasing" true
    (nondecreasing (List.map snd losses));
  List.iter
    (fun (_, l) ->
      check_bool "loss finite and small after reorthogonalization" true
        (Float.is_finite l && l < 1e-10))
    losses

let test_ortho_monotone_under_perturbation () =
  let n = 24 in
  let a = stable_random n in
  let rng = Random.State.make [| 11 |] in
  let b = Mat.random_vec ~rng n in
  (* corrupt every matvec output: the basis stays orthonormal (MGS
     orthogonalizes whatever comes back), and the running-max loss must
     stay monotone regardless *)
  let fault =
    Robust.Faultify.make
      (Robust.Faultify.plan ~persist:true (Robust.Faultify.Perturb 1e-4))
  in
  let _, captured =
    with_memory_sink (fun () ->
        Mor.Arnoldi.run
          ~matvec:(Robust.Faultify.wrap fault (Mat.mul_vec a))
          ~b ~k:10 ())
  in
  let losses = arnoldi_losses captured in
  check_bool "events emitted under fault" true (losses <> []);
  check_bool "running max still nondecreasing" true
    (nondecreasing (List.map snd losses))

(* ---- condition estimators ---- *)

let test_condest_diagonal () =
  let n = 12 in
  (* diag(1 .. 1e6), log-spaced: 1-norm condition number is exactly 1e6 *)
  let a =
    Mat.init n n (fun i j ->
        if i = j then
          10.0 ** (6.0 *. float_of_int i /. float_of_int (n - 1))
        else 0.0)
  in
  let est = Lu.condest (Lu.factor a) in
  check_bool "diag estimate within a decade" true (est >= 1e5 && est <= 1e7);
  let id_est = Lu.condest (Lu.factor (Mat.identity n)) in
  check_bool "identity is perfectly conditioned" true
    (id_est >= 1.0 && id_est < 10.0)

let test_ksolve_cond_estimate () =
  (* diag(-1, -2): at sigma = 1 the k = 1 pole distances are 2 and 3 *)
  let a = Mat.init 2 2 (fun i j -> if i = j then -.float_of_int (i + 1) else 0.0) in
  let ks = Ksolve.prepare a in
  let sigma = { Complex.re = 1.0; im = 0.0 } in
  let c1 = Ksolve.cond_estimate ks ~k:1 ~sigma in
  Alcotest.(check (float 1e-9)) "k=1 exact ratio" 1.5 c1;
  (* k = 2 sums: -2, -3, -4 -> distances 3, 4, 5 *)
  let c2 = Ksolve.cond_estimate ks ~k:2 ~sigma in
  Alcotest.(check (float 1e-9)) "k=2 exact ratio" (5.0 /. 3.0) c2;
  (* an exact pole hit reports infinity, not an exception *)
  let at_pole = Ksolve.cond_estimate ks ~k:1 ~sigma:{ Complex.re = -1.0; im = 0.0 } in
  check_bool "pole hit is infinite" true (at_pole = Float.infinity)

(* ---- moment residuals ---- *)

let test_moment_residual_exact () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl_voltage ~stages:4 ()) in
  let n = Qldae.dim q in
  (* identity projection: the "ROM" is the full model, so every
     residual is zero up to roundoff *)
  let rom = Qldae.project q (Mat.identity n) in
  let s0 = Assoc.s0 (Assoc.create q) in
  let r = Mor.Romdiag.moment_residuals ~s0 ~full:q ~rom () in
  let expect_tiny name = function
    | Some v -> check_bool (name ^ " residual ~ 0") true (v < 1e-8)
    | None -> Alcotest.fail (name ^ " residual missing")
  in
  expect_tiny "H1" r.Mor.Romdiag.h1;
  expect_tiny "H2" r.Mor.Romdiag.h2;
  expect_tiny "H3" r.Mor.Romdiag.h3;
  let sweep = Mor.Romdiag.freq_sweep ~s0 ~full:q ~rom () in
  check_bool "sweep evaluated" true (sweep <> []);
  List.iter
    (fun (_, e) -> check_bool "sweep error ~ 0" true (e < 1e-8))
    sweep

let test_reduce_emits_health () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl_voltage ~stages:6 ()) in
  let _, captured =
    with_memory_sink (fun () ->
        Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 4; k2 = 2; k3 = 0 } q)
  in
  let records = health_events captured in
  let residual_ks =
    List.filter_map
      (function Obs.Health.Moment_residual { k; _ } -> Some k | _ -> None)
      records
  in
  check_bool "H1 residual emitted" true (List.mem 1 residual_ks);
  check_bool "cond estimates emitted" true
    (List.exists
       (function Obs.Health.Cond _ -> true | _ -> false)
       records);
  check_bool "freq sweep emitted" true
    (List.exists
       (function Obs.Health.Freq_error _ -> true | _ -> false)
       records)

(* ---- trace round-trip, report and diff ---- *)

let make_trace path =
  Obs.Sink.set (Obs.Sink.jsonl_file path);
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
    (fun () ->
      Obs.Span.with_ ~name:"outer" (fun () ->
          Obs.Span.with_ ~name:"inner" (fun () ->
              Obs.Metrics.incr Obs.Metrics.Matvec);
          Obs.Health.emit
            (Obs.Health.Arnoldi
               {
                 context = "test";
                 iteration = 3;
                 ortho_loss = 1.25e-13;
                 subdiag = 0.5;
                 defl_margin = 41.0;
               });
          Obs.Health.emit
            (Obs.Health.Moment_residual { k = 2; s0 = 1.0; residual = 3e-9 })))

let test_trace_roundtrip () =
  let path = Filename.temp_file "vmor_health" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      make_trace path;
      let t = Obs.Trace.load path in
      check_int "two spans" 2 (List.length t.Obs.Trace.spans);
      check_int "two health events + metrics-free inner" 2
        (List.length (Obs.Trace.health_records t));
      (* nesting: outer is the single root and holds inner *)
      (match t.Obs.Trace.roots with
      | [ Obs.Trace.Node (outer, children) ] ->
        Alcotest.(check string) "root" "outer" outer.Obs.Sink.name;
        check_bool "inner nested under outer" true
          (List.exists
             (function
               | Obs.Trace.Node (s, _) -> String.equal s.Obs.Sink.name "inner"
               | Obs.Trace.Leaf _ -> false)
             children)
      | _ -> Alcotest.fail "expected a single root span");
      let summary = Obs.Trace.summarize t in
      (match summary.Obs.Trace.worst_ortho with
      | Some (ctx, it, loss) ->
        Alcotest.(check string) "ortho context" "test" ctx;
        check_int "ortho iteration" 3 it;
        Alcotest.(check (float 1e-18)) "ortho loss survives re-parse" 1.25e-13
          loss
      | None -> Alcotest.fail "worst_ortho missing");
      check_bool "tree mentions both spans" true
        (let tree = Obs.Trace.render_tree t in
         let has needle =
           let nl = String.length needle and l = String.length tree in
           let rec go i =
             i + nl <= l && (String.equal (String.sub tree i nl) needle || go (i + 1))
           in
           go 0
         in
         has "outer" && has "inner");
      check_bool "health block renders" true
        (String.length (Obs.Trace.render_health t) > 0);
      (* diff of a trace against itself: renders, lists the matched
         span, and reports zero deltas *)
      let diff = Obs.Trace.render_diff t t in
      let has hay needle =
        let nl = String.length needle and l = String.length hay in
        let rec go i =
          i + nl <= l && (String.equal (String.sub hay i nl) needle || go (i + 1))
        in
        go 0
      in
      check_bool "self-diff lists the span" true (has diff "outer");
      (* the matvec counter is 1 in both traces -> an exact zero delta *)
      check_bool "self-diff shows unchanged counters" true (has diff "+0.0%"))

let suite =
  [
    ( "health",
      [
        Alcotest.test_case "arnoldi ortho loss is monotone" `Quick
          test_ortho_monotone;
        Alcotest.test_case "ortho loss monotone under Perturb fault" `Quick
          test_ortho_monotone_under_perturbation;
        Alcotest.test_case "lu condest on known spectra" `Quick
          test_condest_diagonal;
        Alcotest.test_case "ksolve shifted cond estimate" `Quick
          test_ksolve_cond_estimate;
        Alcotest.test_case "moment residuals vanish on exact ROM" `Quick
          test_moment_residual_exact;
        Alcotest.test_case "reduce emits residual/cond/sweep records" `Quick
          test_reduce_emits_health;
        Alcotest.test_case "trace round-trip, report and self-diff" `Quick
          test_trace_roundtrip;
      ] );
  ]
