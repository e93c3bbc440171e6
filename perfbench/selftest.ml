(* Self-tests of the benchmark harness: generator determinism, the
   tail-percentile rule, metric-name validity, and the staged replay of
   a reduction against Vmor.reduce on tiny models. Exits 1 on the first
   failed check. *)

open Perfbench

let check name ok =
  if not ok then begin
    Printf.eprintf "selftest FAILED: %s\n%!" name;
    exit 1
  end

let stream_digest seed =
  let rng = Gen.rng ~seed ~stream:"selftest" in
  let reduce = List.concat_map (fun _ -> Gen.reduce_cycle rng) [ 1; 2 ] in
  let transient = List.concat (Gen.transient_stream rng ~cycles:2) in
  let models = Gen.transient_models rng in
  Gen.digest
    (List.map Gen.describe_spec (reduce @ models)
    @ List.map
        (fun (r : Gen.transient_req) -> Gen.describe_drive r.t_family r.drive)
        transient)

let generator () =
  check "same seed, same stream" (stream_digest 7 = stream_digest 7);
  check "other seed, other stream" (stream_digest 7 <> stream_digest 8);
  let rng = Gen.rng ~seed:3 ~stream:"selftest" in
  let grid =
    List.sort compare
      (List.concat_map
         (fun f -> List.map (fun n -> (Gen.family_name f, n)) Gen.reduce_sizes)
         Gen.families)
  in
  for _ = 1 to 3 do
    let cycle = Gen.reduce_cycle rng in
    check "a reduce cycle covers family x size once"
      (List.sort compare
         (List.map (fun (s : Gen.model_spec) -> (Gen.family_name s.family, s.n)) cycle)
      = grid);
    let cycles = Gen.transient_stream rng ~cycles:3 in
    List.iter
      (fun cycle ->
        check "a transient cycle covers slot x waveform once"
          (List.sort compare
             (List.map
                (fun (r : Gen.transient_req) -> (r.slot, Gen.wave_name r.drive.Gen.wave))
                cycle)
          = List.sort compare
              (List.concat
                 (List.mapi
                    (fun slot _ -> List.map (fun w -> (slot, Gen.wave_name w)) Gen.waves)
                    Gen.transient_mix)));
        List.iter
          (fun (r : Gen.transient_req) ->
            check "drive within the paper amplitude"
              (r.drive.Gen.amp > 0.0 && r.drive.Gen.amp <= Gen.amp_cap r.t_family
             && r.drive.Gen.noise_amp <= 0.5))
          cycle)
      cycles
  done

let tail_rule () =
  check "20 samples: p50" (Stats.tail_percentile 20 = 50);
  check "40 samples: p75" (Stats.tail_percentile 40 = 75);
  check "100 samples: p90" (Stats.tail_percentile 100 = 90);
  check "10000 samples: p99" (Stats.tail_percentile 10000 = 99);
  check "19 samples: the median" (Stats.tail [ 1.0; 2.0; 3.0; 4.0 ] = (50, 2.5));
  for n = 20 to 400 do
    let xs = List.init n float_of_int in
    let p, v = Stats.tail xs in
    check (Printf.sprintf "%d samples: ten beyond p%d" n p) (Stats.beyond xs v >= 10);
    if p < 99 then
      check
        (Printf.sprintf "%d samples: p%d is the highest" n p)
        (Stats.beyond xs (Stats.percentile (p + 1) xs) < 10)
  done;
  check "median of even count" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let names () =
  let all = Names.end_to_end @ Names.per_layer in
  List.iter
    (fun (n, u) -> check ("metric name " ^ n) (Names.valid_name n && Names.valid_unit u))
    all;
  check "metric names unique"
    (List.length (List.sort_uniq compare (List.map fst all)) = List.length all);
  check "setup_s is an end-to-end metric in seconds"
    (List.assoc_opt "setup_s" Names.end_to_end = Some "s");
  check "invalid names rejected"
    (not (Names.valid_name "_x" || Names.valid_name "a b" || Names.valid_unit ""))

let staged_replay () =
  List.iter
    (fun (spec : Gen.model_spec) ->
      let q = Gen.build spec in
      let r = Work.reduce spec q in
      let st = Work.staged q r in
      check
        ("staged replay equals Vmor.reduce for " ^ Gen.describe_spec spec)
        (Work.bit_identical st.Work.basis r.Vmor.Mor.Atmor.basis);
      check "replay counts repeat" ((Work.staged q r).Work.all = st.Work.all))
    [
      { Gen.family = Gen.Nltl_v; n = 12; coeff = 1.0 };
      { Gen.family = Gen.Rf; n = 8; coeff = 1.0 };
      { Gen.family = Gen.Varistor; n = 10; coeff = 1.0 };
    ]

let () =
  generator ();
  tail_rule ();
  names ();
  staged_replay ();
  print_endline "perfbench selftest: ok"
