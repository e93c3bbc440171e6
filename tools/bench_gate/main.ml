(* Bench regression gate CLI (see gatecheck.ml for the bands):

     bench_gate [--ignore-wall] baseline.json fresh.json

   Exit 0 when every tolerance holds, 1 with a violation table when
   not, 2 on usage/IO errors. `dune build @gate` runs this against a
   reduced-scale bench run; refresh the baseline with the command in
   bench/dune when a change is intentional. *)

let usage () =
  prerr_string "usage: bench_gate [--ignore-wall] BASELINE.json FRESH.json\n";
  exit 2

let load path =
  try Gatecheck.load path with
  | Gatecheck.Bad_bench m ->
    Printf.eprintf "bench_gate: %s\n" m;
    exit 2
  | Sys_error m ->
    Printf.eprintf "bench_gate: %s\n" m;
    exit 2

let () =
  let ignore_wall, baseline_path, fresh_path =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--ignore-wall"; b; f ] -> (true, b, f)
    | [ b; f ] when not (String.starts_with ~prefix:"--" b) -> (false, b, f)
    | _ -> usage ()
  in
  let baseline = load baseline_path and fresh = load fresh_path in
  let violations = Gatecheck.check ~ignore_wall ~baseline ~fresh () in
  print_string (Gatecheck.render violations);
  if violations <> [] then exit 1
