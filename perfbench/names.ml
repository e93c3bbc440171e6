(* Every metric the benchmark prints, with its unit. BENCHMARK.json
   lists the same names; run.py refuses a run whose output differs. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("success_frac", "frac");
    ("peak_heap_mb", "MiB");
    ("reduce_p50_s", "s");
    ("reduce_tail_s", "s");
    ("rom_p50_s", "s");
    ("rom_tail_s", "s");
    ("full_p50_s", "s");
    ("full_tail_s", "s");
    ("rom_speedup", "x");
    ("max_rel_error", "frac");
  ]

let reduce_layers =
  [
    ("assoc.create_s", "s");
    ("assoc.h1_s", "s");
    ("assoc.h2_s", "s");
    ("assoc.h3_s", "s");
    ("qr.orth_s", "s");
    ("qldae.project_s", "s");
    ("atmor.self_s", "s");
    ("assoc.h3.flops_trisolve", "flop");
    ("assoc.h3.flops_tensor", "flop");
    ("assoc.h2.flops_trisolve", "flop");
    ("assoc.h2.flops_tensor", "flop");
    ("assoc.h3.bytes", "B");
    ("assoc.h3.minor_words", "words");
    ("shifted_solve", "count");
    ("lu_solve", "count");
    ("ladder_attempt", "count");
    ("ladder.retry_ratio", "ratio");
    ("qr.kept_ratio", "ratio");
    ("ksolve.prepare_s", "s");
    ("ksolve.solve_k2_s", "s");
    ("ksolve.solve_k3_s", "s");
    ("ksolve.k3_gflops", "Gflop/s");
    ("ksolve.k3_flops_per_byte", "flop/B");
    ("reduce.coverage", "ratio");
    ("reduce.trace_overhead", "ratio");
  ]

let sim_layers =
  [
    ("simulate_s", "s");
    ("ode_steps", "count");
    ("ode_rejected", "count");
    ("rhs_evals", "count");
    ("jac_evals", "count");
    ("newton_iters", "count");
    ("accept_ratio", "ratio");
    ("rhs_us", "us");
    ("g2_apply_us", "us");
    ("g3_apply_us", "us");
    ("jacobian_us", "us");
    ("lu.factor_us", "us");
    ("lu.solve_us", "us");
    ("rhs_share", "ratio");
    ("stepper_self_s", "s");
    ("minor_words", "words");
    ("flops_ode_rhs", "flop");
    ("flops_stepper", "flop");
    ("trace_overhead", "ratio");
  ]

let per_layer =
  reduce_layers
  @ List.concat_map
      (fun prefix -> List.map (fun (n, u) -> (prefix ^ n, u)) sim_layers)
      [ "rom."; "full." ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Names.unit_of: unknown metric " ^ name)

(* The naming rules BENCHMARK.json must follow. *)
let valid_name s =
  let ok = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let first = s <> "" && ok s.[0] && not (String.contains "_.-" s.[0]) in
  first && String.length s <= 64 && String.for_all ok s

let valid_unit s =
  let ok c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  s <> "" && String.length s <= 16 && String.for_all ok s
