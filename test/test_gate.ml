(* Tests for the bench regression gate (tools/bench_gate/gatecheck.ml):
   every band of the bench schema — counters and ROM orders, walls,
   accuracy, exact cost counters, GC words, overhead percentages, the
   Vmor.Par lines and the latency block — its presence rule per block
   and per name, and the gate verdicts on the committed BENCH_<pr>.json
   snapshots. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let gate ?(ignore_wall = false) old_s new_s =
  Gatecheck.check ~ignore_wall ~baseline:(Gatecheck.parse old_s)
    ~fresh:(Gatecheck.parse new_s) ()

(* ---- pass/fail deltas and structure ---- *)

let bench_json ?(scale = 0.25) ?(wall = 1.0) ?(lu_factor = 100)
    ?(max_rel_error = 0.01) ?(order = 8) () =
  Printf.sprintf
    {|{
  "scale": %g,
  "experiments": [
    {
      "id": "fig_t",
      "title": "gate test",
      "full_states": 40,
      "wall_seconds": %.6f,
      "counters": {"lu_factor": %d, "matvec": 1000},
      "roms": [{"method": "Proposed", "order": %d, "raw_moments": 10,
                "reduction_seconds": 0.1, "max_rel_error": %.8f}]
    }
  ]
}|}
    scale wall lu_factor order max_rel_error

let test_gate_pass_fail () =
  let base = bench_json () in
  check_int "identical runs pass" 0 (List.length (gate base base));
  check_int "counter wobble within 10% passes" 0
    (List.length (gate base (bench_json ~lu_factor:105 ())));
  check_int "counter jump fails" 1
    (List.length (gate base (bench_json ~lu_factor:150 ())));
  check_int "counter drop fails (stale baseline visible)" 1
    (List.length (gate base (bench_json ~lu_factor:3 ())));
  check_int "gross wall regression fails" 1
    (List.length (gate base (bench_json ~wall:10.0 ())));
  check_int "--ignore-wall skips it" 0
    (List.length (gate ~ignore_wall:true base (bench_json ~wall:10.0 ())));
  check_int "error within 2x passes" 0
    (List.length (gate base (bench_json ~max_rel_error:0.015 ())));
  check_int "error beyond 2x fails" 1
    (List.length (gate base (bench_json ~max_rel_error:0.03 ())));
  check_int "error improvement passes" 0
    (List.length (gate base (bench_json ~max_rel_error:0.0001 ())));
  check_int "order change fails" 1
    (List.length (gate base (bench_json ~order:12 ())));
  check_int "scale mismatch fails" 1
    (List.length (gate base (bench_json ~scale:1.0 ())));
  (* violations render as a table, one line per violation + header *)
  let vs = gate base (bench_json ~lu_factor:150 ~max_rel_error:0.5 ()) in
  check_int "both violations reported" 2 (List.length vs);
  check_bool "renders readably" true
    (String.length (Gatecheck.render vs) > 0);
  check_bool "clean render says OK" true
    (String.equal (Gatecheck.render []) "bench gate: OK\n")

let test_gate_structural () =
  let base = bench_json () in
  let missing = {|{ "scale": 0.25, "experiments": [] }|} in
  check_int "missing experiment fails" 1 (List.length (gate base missing));
  check_int "unexpected experiment fails" 1 (List.length (gate missing base));
  (match Gatecheck.parse base with
  | b -> check_int "parse keeps experiments" 1 (List.length b.Gatecheck.experiments));
  check_bool "malformed input raises Bad_bench" true
    (match Gatecheck.parse "{ not json" with
    | exception Gatecheck.Bad_bench _ -> true
    | _ -> false)

(* ROMs pair up by position: a renamed method or a ROM added or
   dropped is structure, one violation each *)
let test_gate_rom_structure () =
  let roms ms =
    Printf.sprintf
      {|{"scale": 0.25, "experiments": [{"id": "fig_r", "title": "rom test",
  "full_states": 40, "wall_seconds": 1.0, "counters": {}, "roms": [%s]}]}|}
      (String.concat ", "
         (List.map
            (fun m ->
              Printf.sprintf
                {|{"method": "%s", "order": 8, "raw_moments": 10,
                   "reduction_seconds": 0.1, "max_rel_error": 0.01}|}
                m)
            ms))
  in
  let base = roms [ "Proposed"; "NORM" ] in
  check_int "identical passes" 0 (List.length (gate base base));
  check_int "method change fails" 1
    (List.length (gate base (roms [ "Proposed"; "Multipoint" ])));
  check_int "dropped ROM fails" 1 (List.length (gate base (roms [ "Proposed" ])));
  check_int "added ROM fails" 1
    (List.length (gate (roms [ "Proposed" ]) base))

(* ---- exact cost bands ---- *)

let cost_bench ?cost () =
  let cost_member =
    match cost with
    | None -> ""
    | Some entries ->
      Printf.sprintf {|"cost": {%s},|}
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf {|"%s": %d|} k v) entries))
  in
  Printf.sprintf
    {|{
  "scale": 0.25,
  "experiments": [
    {
      "id": "fig_cost",
      "title": "cost gate test",
      "full_states": 40,
      "wall_seconds": 1.0,
      "counters": {"lu_factor": 100},
      %s
      "roms": []
    }
  ]
}|}
    cost_member

let test_gate_cost_exact () =
  let entries = [ ("flops_lu", 144_000); ("bytes_read", 57_600) ] in
  let base = cost_bench ~cost:entries () in
  check_int "identical cost passes" 0 (List.length (gate base base));
  (* exact band: a single-flop drift is a violation *)
  let drift = cost_bench ~cost:[ ("flops_lu", 144_001); ("bytes_read", 57_600) ] () in
  (match gate base drift with
  | [ v ] ->
    check_bool "violation names the cost counter" true
      (contains ~needle:"flops_lu" v.Gatecheck.metric);
    check_bool "band is exact" true (String.equal "exact" v.Gatecheck.allowed)
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs)));
  (* a counter vanishing (or appearing) fails the presence walk *)
  check_int "cost counter vanishing fails" 1
    (List.length (gate base (cost_bench ~cost:[ ("flops_lu", 144_000) ] ())));
  (* structural presence mirrors the gc block *)
  check_int "cost block disappearing fails" 1
    (List.length (gate base (cost_bench ())));
  check_int "cost block appearing fails (refresh baseline)" 1
    (List.length (gate (cost_bench ()) base));
  check_int "cost absent on both sides passes" 0
    (List.length (gate (cost_bench ()) (cost_bench ())));
  (* cost bands hold even when wall checks are skipped: --ignore-wall
     must not disable the deterministic perf pin *)
  check_int "exact band enforced under --ignore-wall" 1
    (List.length (gate ~ignore_wall:true base drift));
  check_int "exact band enforced with wall checks on" 1
    (List.length (gate ~ignore_wall:false base drift))

(* ---- gc bands ---- *)

let gc_bench ?gc () =
  let gc_member =
    match gc with
    | None -> ""
    | Some (minor, major) ->
      Printf.sprintf {|"gc": {"minor_words": %.0f, "major_words": %.0f},|}
        minor major
  in
  Printf.sprintf
    {|{
  "scale": 0.25,
  "experiments": [
    {
      "id": "fig_gc",
      "title": "gc gate test",
      "full_states": 40,
      "wall_seconds": 1.0,
      "counters": {"lu_factor": 100},
      %s
      "roms": []
    }
  ]
}|}
    gc_member

let test_gate_gc_band () =
  let base = gc_bench ~gc:(1_000_000.0, 50_000.0) () in
  check_int "identical gc passes" 0
    (List.length (gate base (gc_bench ~gc:(1_000_000.0, 50_000.0) ())));
  check_int "gc within 25% passes" 0
    (List.length (gate base (gc_bench ~gc:(1_200_000.0, 55_000.0) ())));
  check_int "minor_words jump fails" 1
    (List.length (gate base (gc_bench ~gc:(1_300_000.0, 50_000.0) ())));
  check_int "major_words collapse fails" 1
    (List.length (gate base (gc_bench ~gc:(1_000_000.0, 10_000.0) ())));
  check_int "both gc words out of band" 2
    (List.length (gate base (gc_bench ~gc:(2_000_000.0, 200_000.0) ())));
  (* structural presence: a gc block may not silently (dis)appear *)
  check_int "gc disappearing fails" 1
    (List.length (gate base (gc_bench ())));
  check_int "gc appearing fails (refresh baseline)" 1
    (List.length (gate (gc_bench ()) base));
  check_int "gc absent on both sides passes" 0
    (List.length (gate (gc_bench ()) (gc_bench ())))

(* ---- latency block pass/fail matrix ---- *)

let bench_src ?latency () =
  let lat =
    match latency with
    | None -> ""
    | Some (p50, p99, det_p50) ->
      Printf.sprintf
        ",\n\
        \  \"latency\": {\"requests\": 32, \"p50_s\": %s, \"p99_s\": %s, \
         \"det\": {\"count\": 4096, \"nonzero_buckets\": 160, \"p50\": %s, \
         \"p90\": 63.25, \"p99\": 774.5}}"
        p50 p99 det_p50
  in
  Printf.sprintf "{\"scale\": 0.25,\n  \"experiments\": []%s}\n" lat

let test_gate_latency_matrix () =
  let good = bench_src ~latency:("0.5", "0.75", "0.000753") () in
  check_int "identical passes" 0 (List.length (gate good good));
  (* det drift fails even under --ignore-wall: the fingerprint is the
     determinism contract, not a timing *)
  let det_drift = bench_src ~latency:("0.5", "0.75", "0.000754") () in
  check_int "det drift fails" 1
    (List.length (gate ~ignore_wall:true good det_drift));
  (* wall quantile drift: banded without --ignore-wall, skipped with *)
  let slow = bench_src ~latency:("1.2", "0.75", "0.000753") () in
  check_int "p50 blowup fails with walls on" 1
    (List.length (gate good slow));
  check_int "p50 blowup skipped under ignore-wall" 0
    (List.length (gate ~ignore_wall:true good slow));
  (* small wall wobble stays inside the band *)
  let wobble = bench_src ~latency:("0.5625", "0.875", "0.000753") () in
  check_int "one-bucket wobble passes" 0
    (List.length (gate good wobble));
  (* structural both directions *)
  let absent = bench_src () in
  check_int "block disappearing fails" 1
    (List.length (gate ~ignore_wall:true good absent));
  check_int "block appearing vs old baseline fails" 1
    (List.length (gate ~ignore_wall:true absent good))

(* ---- overhead percentages ---- *)

let overheads_src entries =
  Printf.sprintf {|{"scale": 0.25, "experiments": [], "overheads": {%s}}|}
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf {|"%s": %g|} k v) entries))

let test_gate_overheads () =
  let base = overheads_src [ ("budget_poll", 0.5); ("trace", 0.25) ] in
  let with_poll p = overheads_src [ ("budget_poll", p); ("trace", 0.25) ] in
  check_int "identical passes" 0 (List.length (gate base base));
  check_int "within +1pt passes" 0 (List.length (gate base (with_poll 1.4)));
  check_int "beyond +1pt fails" 1 (List.length (gate base (with_poll 1.6)));
  check_int "a drop passes" 0 (List.length (gate base (with_poll 0.0)));
  check_int "slack skipped under --ignore-wall" 0
    (List.length (gate ~ignore_wall:true base (with_poll 5.0)));
  check_int "name vanishing fails" 1
    (List.length (gate base (overheads_src [ ("budget_poll", 0.5) ])));
  check_int "name appearing fails (refresh baseline)" 1
    (List.length
       (gate base
          (overheads_src [ ("budget_poll", 0.5); ("trace", 0.25); ("new", 0.1) ])))

(* Presence is structure, not timing: a budget pass that stops emitting
   an overhead must fail the deterministic runtest smoke too. *)
let test_gate_overheads_presence_ignore_wall () =
  let base = overheads_src [ ("budget_poll", 0.5); ("trace", 0.25) ] in
  check_int "name vanishing fails under --ignore-wall" 1
    (List.length
       (gate ~ignore_wall:true base (overheads_src [ ("budget_poll", 0.5) ])));
  check_int "name appearing fails under --ignore-wall" 1
    (List.length
       (gate ~ignore_wall:true (overheads_src [ ("budget_poll", 0.5) ]) base))

(* ---- Vmor.Par lines ---- *)

let par_src ?(cores = 2) ?(serial = 0.003) ?(speedup = 1.0) ?(overhead = 0.0)
    ?(extra = []) ?(drop = "") () =
  let walls =
    [
      ("serial_wall", serial);
      ("wall_1", serial);
      ("wall_2", serial);
      ("wall_4", serial);
      ("speedup_4", speedup);
      ("overhead_1_pct", overhead);
    ]
    @ extra
  in
  Printf.sprintf {|{"scale": 0.25, "experiments": [], "par": {"cores": %d%s}}|}
    cores
    (String.concat ""
       (List.filter_map
          (fun (k, v) ->
            if String.equal k drop then None
            else Some (Printf.sprintf {|, "%s": %g|} k v))
          walls))

let test_gate_par () =
  let base = par_src () and no_par = {|{"scale": 0.25, "experiments": []}|} in
  check_int "identical passes" 0 (List.length (gate base base));
  List.iter
    (fun ignore_wall ->
      check_int "block disappearing fails" 1
        (List.length (gate ~ignore_wall base no_par));
      check_int "block appearing fails (refresh baseline)" 1
        (List.length (gate ~ignore_wall no_par base));
      check_int "name vanishing fails" 1
        (List.length (gate ~ignore_wall base (par_src ~drop:"wall_2" ())));
      check_int "name appearing fails (refresh baseline)" 1
        (List.length
           (gate ~ignore_wall base (par_src ~extra:[ ("wall_8", 0.003) ] ()))))
    [ false; true ];
  (* speedup_4 needs >= 4 cores and a serial wall above the 50 ms floor *)
  let slow4 = par_src ~cores:4 ~serial:0.1 ~speedup:2.0 () in
  check_int "speedup_4 below 2.5x on 4 cores fails" 1
    (List.length (gate base slow4));
  check_int "speedup_4 at 2.5x passes" 0
    (List.length (gate base (par_src ~cores:4 ~serial:0.1 ~speedup:2.5 ())));
  check_int "speedup_4 unarmed on 2 cores" 0
    (List.length (gate base (par_src ~cores:2 ~serial:0.1 ~speedup:1.0 ())));
  check_int "speedup_4 unarmed below the serial-wall floor" 0
    (List.length (gate base (par_src ~cores:4 ~serial:0.01 ~speedup:1.0 ())));
  (* overhead_1_pct: an absolute 2% line, same serial-wall floor *)
  let heavy = par_src ~serial:0.1 ~overhead:2.5 () in
  check_int "overhead_1_pct above 2% fails" 1 (List.length (gate base heavy));
  check_int "overhead_1_pct at 2% passes" 0
    (List.length (gate base (par_src ~serial:0.1 ~overhead:2.0 ())));
  check_int "overhead_1_pct unarmed below the serial-wall floor" 0
    (List.length (gate base (par_src ~serial:0.01 ~overhead:5.0 ())));
  check_int "both lines fire together" 2
    (List.length
       (gate base (par_src ~cores:4 ~serial:0.1 ~speedup:1.0 ~overhead:3.0 ())));
  check_int "speedup_4 skipped under --ignore-wall" 0
    (List.length (gate ~ignore_wall:true base slow4));
  check_int "overhead_1_pct skipped under --ignore-wall" 0
    (List.length (gate ~ignore_wall:true base heavy))

(* ---- committed snapshots ---- *)

(* Violation counts between the committed BENCH_<pr>.json payloads,
   pinned so a change to any band shows up as a changed count: the
   self-pairs must pass, and e.g. 12 -> 14 is the 32 gated entries the
   one-chain H3 change moved.  Walls-on counts differ from
   --ignore-wall ones only by the latency quantiles and walls. *)
let test_gate_snapshots () =
  let prs = [ 9; 10; 12; 14 ] in
  let bench pr =
    (Benchhistory.parse_entry
       (Benchhistory.read_file (Printf.sprintf "../BENCH_%d.json" pr)))
      .Benchhistory.bench
  in
  let benches = List.map (fun pr -> (pr, bench pr)) prs in
  let expected =
    (* (baseline, fresh), (--ignore-wall, walls on) *)
    [
      ((9, 10), (1, 1)); ((9, 12), (20, 20)); ((9, 14), (37, 37));
      ((10, 9), (1, 1)); ((10, 12), (19, 21)); ((10, 14), (36, 39));
      ((12, 9), (20, 20)); ((12, 10), (19, 21)); ((12, 14), (32, 32));
      ((14, 9), (37, 37)); ((14, 10), (36, 39)); ((14, 12), (32, 32));
    ]
  in
  List.iter
    (fun (a, ba) ->
      List.iter
        (fun (b, bb) ->
          let want_iw, want_wall =
            if a = b then (0, 0) else List.assoc (a, b) expected
          in
          let count ignore_wall =
            List.length (Gatecheck.check ~ignore_wall ~baseline:ba ~fresh:bb ())
          in
          let label mode = Printf.sprintf "BENCH_%d -> BENCH_%d (%s)" a b mode in
          check_int (label "--ignore-wall") want_iw (count true);
          check_int (label "walls on") want_wall (count false))
        benches)
    benches

let suite =
  [
    ( "bench.gate",
      [
        Alcotest.test_case "bench gate pass/fail deltas" `Quick
          test_gate_pass_fail;
        Alcotest.test_case "bench gate structural checks" `Quick
          test_gate_structural;
        Alcotest.test_case "ROM method and count are structure" `Quick
          test_gate_rom_structure;
        Alcotest.test_case "gate: exact cost bands" `Quick
          test_gate_cost_exact;
        Alcotest.test_case "bench gate gc bands" `Quick test_gate_gc_band;
        Alcotest.test_case "gate latency matrix" `Quick
          test_gate_latency_matrix;
        Alcotest.test_case "overhead +1pt band and presence" `Quick
          test_gate_overheads;
        Alcotest.test_case "overhead presence under --ignore-wall" `Quick
          test_gate_overheads_presence_ignore_wall;
        Alcotest.test_case "par block, names and lines" `Quick test_gate_par;
        Alcotest.test_case "committed snapshot matrix" `Quick
          test_gate_snapshots;
      ] );
  ]
