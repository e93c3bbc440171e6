(* Bench regression gate: compare a fresh bench/out/bench.json against
   the checked-in bench/baseline.json and list tolerance violations.

   Every number a bench run writes becomes one row — where, metric,
   value and band — and [rows] below is the one table of how each may
   move.  The gate is two walks over the baseline's and the fresh
   run's rows: [presence] (no block and no name within a block may
   appear or vanish) and [compare_rows] (each matched row stays inside
   its band).  Wall-derived bands are flagged and skipped under
   --ignore-wall, the deterministic runtest smoke; presence and every
   deterministic band hold in both modes.

   This is a library so the test suite can drive the same logic on
   hand-crafted JSON; tools/bench_gate/main.ml is the thin CLI around
   it and `dune build @gate` wires it to a reduced-scale bench run. *)

type rom = {
  method_name : string;
  order : int;
  raw_moments : int;
  reduction_seconds : float;
  max_rel_error : float;
}

type experiment = {
  id : string;
  title : string;
  full_states : int;
  wall_seconds : float;
  counters : (string * int) list;
  cost : (string * int) list option;
      (* Obs.Cost work counters (flops/bytes); nominal dimension-driven
         charges, so exact by construction — [None] only for baselines
         predating the cost model *)
  gc : (float * float) option;  (* minor_words, major_words *)
  roms : rom list;
}

type par = {
  cores : int;  (* Domain.recommended_domain_count on the bench host *)
  walls : (string * float) list;
      (* serial_wall / wall_1 / wall_2 / wall_4 / speedup_4 /
         overhead_1_pct, as written by the bench `par` pass *)
}

type latency = {
  requests : int;
  p50_s : float;  (* wall quantiles over the scoped request loop: banded *)
  p99_s : float;
  det_count : int;
      (* deterministic Qhist fingerprint: a fixed synthetic value stream
         through the production bucket geometry, so counts and quantiles
         are pure integer/ldexp arithmetic — pinned exactly, even under
         --ignore-wall *)
  det_nonzero : int;
  det_p50 : float;
  det_p90 : float;
  det_p99 : float;
}

type bench = {
  scale : float;
  experiments : experiment list;
  overheads : (string * float) list;
      (* instrumentation-overhead percentages (budget polling, …):
         wall-derived, so banded only when wall checks are on *)
  par : par option;  (* Vmor.Par speedup block, absent pre-PR-8 *)
  latency : latency option;  (* request-latency block, absent pre-PR-10 *)
}

exception Bad_bench of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_bench s)) fmt

let parse (src : string) : bench =
  let open Obs.Json in
  let json = try parse src with Parse_error m -> bad "invalid JSON: %s" m in
  try
    let rom j =
      {
        method_name = to_str (member_exn "method" j);
        order = to_int (member_exn "order" j);
        raw_moments = to_int (member_exn "raw_moments" j);
        reduction_seconds = to_num (member_exn "reduction_seconds" j);
        max_rel_error = to_num (member_exn "max_rel_error" j);
      }
    in
    let experiment j =
      {
        id = to_str (member_exn "id" j);
        title = to_str (member_exn "title" j);
        full_states = to_int (member_exn "full_states" j);
        wall_seconds = to_num (member_exn "wall_seconds" j);
        counters =
          List.map
            (fun (k, v) -> (k, to_int v))
            (to_obj (member_exn "counters" j));
        cost =
          (match member "cost" j with
          | Some c -> Some (List.map (fun (k, v) -> (k, to_int v)) (to_obj c))
          | None -> None);
        gc =
          (match member "gc" j with
          | Some g ->
            Some
              ( to_num (member_exn "minor_words" g),
                to_num (member_exn "major_words" g) )
          | None -> None);
        roms = List.map rom (to_arr (member_exn "roms" j));
      }
    in
    {
      scale = to_num (member_exn "scale" json);
      experiments = List.map experiment (to_arr (member_exn "experiments" json));
      overheads =
        (match member "overheads" json with
        | Some o -> List.map (fun (k, v) -> (k, to_num v)) (to_obj o)
        | None -> []);
      par =
        (match member "par" json with
        | None -> None
        | Some p ->
          Some
            {
              cores = to_int (member_exn "cores" p);
              walls =
                List.filter_map
                  (fun (k, v) ->
                    if String.equal k "cores" then None
                    else Some (k, to_num v))
                  (to_obj p);
            });
      latency =
        (match member "latency" json with
        | None -> None
        | Some l ->
          let det = member_exn "det" l in
          Some
            {
              requests = to_int (member_exn "requests" l);
              p50_s = to_num (member_exn "p50_s" l);
              p99_s = to_num (member_exn "p99_s" l);
              det_count = to_int (member_exn "count" det);
              det_nonzero = to_int (member_exn "nonzero_buckets" det);
              det_p50 = to_num (member_exn "p50" det);
              det_p90 = to_num (member_exn "p90" det);
              det_p99 = to_num (member_exn "p99" det);
            });
    }
  with Parse_error m -> bad "bad bench schema: %s" m

let load (path : string) : bench =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  try parse src with Bad_bench m -> bad "%s: %s" path m

(* How a number may move from the baseline to the fresh run. *)
type rule =
  | Info  (* presence only *)
  | Exact of string  (* equal, else the [allowed] text *)
  | Rel of { tol : float; floor : float }
      (* fails when |new - old| exceeds both [tol] * |old| and [floor];
         with no floor, small integers must match exactly *)
  | Factor of float  (* new <= k * old *)
  | Slack of float  (* new <= old + k *)
  | Line of { fails : float -> bool; note : string; allowed : string }
      (* an absolute line on the fresh value alone; [note] fills the
         baseline column *)

type band = { rule : rule; wall : bool  (* skipped under --ignore-wall *) }

let info = { rule = Info; wall = false }
let must_match = { rule = Exact "must match"; wall = false }

(* Obs.Cost work counters are nominal functions of operand dimensions
   only, so any drift is a real change in the work performed (or in the
   charge model itself) and needs a deliberate baseline refresh.  Not
   wall-flagged: they are the deterministic, wall-free performance pin,
   so the runtest smoke enforces them too. *)
let exact = { rule = Exact "exact"; wall = false }

(* The latency det sub-block is a fixed synthetic stream through the
   production Qhist geometry — integer LCG + ldexp only — so its
   quantiles survive the JSON round trip bit-for-bit via %.17g: any
   drift is a real change in bucket indexing, merge arithmetic or
   quantile interpolation. *)
let fingerprint =
  { rule = Exact "exact (deterministic fingerprint)"; wall = false }

(* Kernel counters and ROM orders are deterministic at fixed scale;
   the 10% escape hatch is for counts that legitimately wobble with
   iteration-dependent control flow (Newton iterations, step-size
   control). *)
let counter = { rule = Rel { tol = 0.10; floor = 0.0 }; wall = false }

(* GC word counts are deterministic-ish at fixed scale but move with
   allocator batching and minor-heap sizing across runtimes, so the
   band is wider than the counter one.  An allocation regression worth
   flagging (a copy in a hot loop) blows well past 25%. *)
let gc_words = { rule = Rel { tol = 0.25; floor = 0.0 }; wall = false }

(* Wall times are noisy.  The 2 s absolute floor under the relative
   band: reduced-scale runs take a few seconds, and shared machines
   routinely jitter that much.  Wall checks exist to catch gross
   blowups (an accidental O(n^2) inner loop, a hung solve); the
   deterministic counter comparison is what pins down algorithmic
   regressions. *)
let experiment_wall = { rule = Rel { tol = 0.30; floor = 2.0 }; wall = true }

(* Request-latency quantiles are sub-second, so the experiment wall
   band's 2 s floor would swallow them entirely — they get their own,
   tighter floor.  The relative band is wider than the experiment one
   because a p50/p99 of 32 requests carries both order-statistic noise
   and the Qhist's log-linear bucket quantization (~19% between
   adjacent bucket interpolants), so a one-bucket shift must stay
   inside the band. *)
let latency_wall = { rule = Rel { tol = 0.50; floor = 0.15 }; wall = true }

(* Accuracy must never quietly regress: max_rel_error may drift, but
   not beyond 2x the baseline. *)
let error = { rule = Factor 2.0; wall = false }

(* Overhead percentages (budget polling) are ratios of two wall times,
   so they jitter like wall times do; the band is an absolute
   percentage-point allowance over the pinned baseline, not a relative
   one (a 0.1% baseline doubling to 0.2% is noise, not a regression). *)
let overhead = { rule = Slack 1.0; wall = true }

(* Vmor.Par lines: absolute on the fresh run (the baseline pins
   structure, the lines pin the contract).  Both are ratios of wall
   times, so they are wall-flagged, and both only mean anything once
   the serial wall clears a noise floor: a few-ms reduction at reduced
   scale measures timer granularity and scheduler jitter, not kernel
   scaling.  The speedup line additionally needs a host that can run 4
   domains in parallel (the fresh run records its core count). *)
let par_speedup_min = 2.5  (* 4-domain speedup on >= 4 cores *)
let par_overhead_max = 2.0  (* percent: 1-domain over serial *)
let par_wall_floor = 0.05  (* seconds of serial wall *)

(* One number of a bench run and the band it is held to. *)
type row = {
  id : string;  (* match key, unique within one bench *)
  parent : string;  (* id of the enclosing block's header row; "" at top *)
  where : string;
  metric : string;
  v : float;
  show : string;
  band : band;
}

(* One violated tolerance; [where] locates it (experiment / ROM),
   [allowed] restates the band that was broken. *)
type violation = {
  where : string;
  metric : string;
  baseline : string;
  current : string;
  allowed : string;
}

let rows (b : bench) : row list =
  let row ?(parent = "") ?key where metric band (v, show) =
    let id = Option.value key ~default:where ^ " " ^ metric in
    { id; parent; where; metric; v; show; band }
  in
  let int i = (float_of_int i, string_of_int i)
  and num fmt x = (x, Printf.sprintf fmt x)
  and no_value = (0.0, "") in
  (* a block present as a whole or not at all: a header row plus its
     entries, which are presence-checked only where the header is on
     both sides *)
  let block ?parent where name ~prefix = function
    | None -> []
    | Some entries ->
      row ?parent where name info no_value
      :: List.map
           (fun (m, band, x) ->
             row ~parent:(where ^ " " ^ name) where (prefix ^ m) band x)
           entries
  in
  let experiment (e : experiment) =
    let parent = e.id ^ " experiment" in
    let sub = row ~parent e.id in
    (* ROMs pair up by position, and report under the baseline's
       method and order.  reduction_seconds has no row: per-ROM timings
       at reduced scale sit well under the noise floor, the experiment
       wall band already covers real slowdowns. *)
    let rom i (r : rom) =
      let key = Printf.sprintf "%s rom %d" e.id i
      and where = Printf.sprintf "%s/%s[q=%d]" e.id r.method_name r.order in
      let sub = row ~parent:(key ^ " rom") ~key where in
      [
        row ~parent ~key where "rom" info no_value;
        sub "method" must_match (0.0, r.method_name);
        sub "order" counter (int r.order);
        sub "raw_moments" counter (int r.raw_moments);
        sub "max_rel_error" error (num "%.6f" r.max_rel_error);
      ]
    in
    (row e.id "experiment" info no_value
    :: sub "full_states" must_match (int e.full_states)
    :: sub "wall_seconds" experiment_wall (num "%.4fs" e.wall_seconds)
    :: List.map (fun (k, c) -> sub ("counter " ^ k) counter (int c)) e.counters)
    @ block ~parent e.id "cost" ~prefix:"cost "
        (Option.map (List.map (fun (k, c) -> (k, exact, int c))) e.cost)
    @ block ~parent e.id "gc" ~prefix:"gc "
        (Option.map
           (fun (minor, major) ->
             [
               ("minor_words", gc_words, num "%.0f" minor);
               ("major_words", gc_words, num "%.0f" major);
             ])
           e.gc)
    @ List.concat (List.mapi rom e.roms)
  in
  let par (p : par) =
    let armed =
      Option.value ~default:0.0 (List.assoc_opt "serial_wall" p.walls)
      >= par_wall_floor
    in
    let line fails note allowed =
      { rule = Line { fails; note; allowed }; wall = true }
    in
    List.map
      (fun (n, x) ->
        match n with
        | "speedup_4" when armed && p.cores >= 4 ->
          ( n,
            line
              (fun s -> s < par_speedup_min)
              (Printf.sprintf "%d cores" p.cores)
              (Printf.sprintf ">= %.1fx on >= 4 cores" par_speedup_min),
            num "%.2fx" x )
        | "overhead_1_pct" when armed ->
          ( n,
            line
              (fun o -> o > par_overhead_max)
              "serial wall"
              (Printf.sprintf "<= %.1f%%" par_overhead_max),
            num "%+.2f%%" x )
        | _ -> (n, info, no_value))
      p.walls
  in
  let latency (l : latency) =
    [
      ("requests", exact, int l.requests);
      ("det.count", exact, int l.det_count);
      ("det.nonzero_buckets", exact, int l.det_nonzero);
      ("det.p50", fingerprint, num "%.17g" l.det_p50);
      ("det.p90", fingerprint, num "%.17g" l.det_p90);
      ("det.p99", fingerprint, num "%.17g" l.det_p99);
      ("p50_s", latency_wall, num "%.4fs" l.p50_s);
      ("p99_s", latency_wall, num "%.4fs" l.p99_s);
    ]
  in
  (row "(run)" "scale" must_match (num "%g" b.scale)
  :: List.concat_map experiment b.experiments)
  @ List.map
      (fun (n, x) -> row "(overheads)" n overhead (num "%.2f%%" x))
      b.overheads
  @ block "(par)" "par block" ~prefix:"" (Option.map par b.par)
  @ block "(latency)" "latency block" ~prefix:"" (Option.map latency b.latency)

(* Structure before bands: a block or a name within a block that
   vanished means the bench stopped recording it (dead
   instrumentation fails just like a jump); one that appeared means the
   baseline predates it and needs a refresh.  Never skipped under
   --ignore-wall — presence is structure, not timing. *)
let presence (old_rows : row list) (new_rows : row list) : violation list =
  let only_in rs others ~baseline ~current =
    let ids = Hashtbl.create 256 in
    List.iter (fun r -> Hashtbl.replace ids r.id ()) others;
    List.filter_map
      (fun r ->
        if Hashtbl.mem ids r.id
           || not (String.equal r.parent "" || Hashtbl.mem ids r.parent)
        then None
        else
          Some
            { where = r.where; metric = r.metric; baseline; current;
              allowed = "must match" })
      rs
  in
  only_in old_rows new_rows ~baseline:"present" ~current:"missing"
  @ only_in new_rows old_rows ~baseline:"absent (refresh baseline)"
      ~current:"present"

(* Each row on both sides against the fresh row's band (the Par lines
   depend on the fresh host). *)
let compare_rows ~ignore_wall (old_rows : row list) (new_rows : row list) :
    violation list =
  let old = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace old r.id r) old_rows;
  List.filter_map
    (fun (n : row) ->
      match Hashtbl.find_opt old n.id with
      | None -> None
      | Some _ when ignore_wall && n.band.wall -> None
      | Some o ->
        let d = Float.abs (n.v -. o.v) in
        let broken ?(baseline = o.show) allowed =
          Some
            { where = o.where; metric = o.metric; baseline; current = n.show;
              allowed }
        in
        (match n.band.rule with
        | Info -> None
        | Exact allowed ->
          if String.equal o.show n.show && Float.equal o.v n.v then None
          else broken allowed
        | Rel { tol; floor } ->
          if d /. Float.max (Float.abs o.v) 1e-12 > tol && d > floor then
            broken
              (Printf.sprintf "%s+-%.0f%%"
                 (if floor > 0.0 then "" else "exact or ")
                 (100.0 *. tol))
          else None
        | Factor k ->
          if n.v > (k *. o.v) +. 1e-9 then
            broken (Printf.sprintf "<= %gx baseline" k)
          else None
        | Slack k ->
          if n.v > o.v +. k then
            broken (Printf.sprintf "<= baseline + %.1fpt" k)
          else None
        | Line { fails; note; allowed } ->
          if fails n.v then broken ~baseline:note allowed else None))
    new_rows

let check ?(ignore_wall = false) ~(baseline : bench) ~(fresh : bench) () :
    violation list =
  let old_rows = rows baseline and new_rows = rows fresh in
  presence old_rows new_rows @ compare_rows ~ignore_wall old_rows new_rows

let render (violations : violation list) : string =
  let b = Buffer.create 1024 in
  (match violations with
  | [] -> Buffer.add_string b "bench gate: OK\n"
  | vs ->
    Buffer.add_string b
      (Printf.sprintf "bench gate: %d violation(s)\n" (List.length vs));
    let rows =
      ("where", "metric", "baseline", "current", "allowed")
      :: List.map (fun v -> (v.where, v.metric, v.baseline, v.current, v.allowed)) vs
    in
    let w f = List.fold_left (fun m r -> max m (String.length (f r))) 0 rows in
    let w1 = w (fun (a, _, _, _, _) -> a)
    and w2 = w (fun (_, a, _, _, _) -> a)
    and w3 = w (fun (_, _, a, _, _) -> a)
    and w4 = w (fun (_, _, _, a, _) -> a) in
    List.iteri
      (fun i (a, m, ov, nv, al) ->
        Buffer.add_string b
          (Printf.sprintf "  %-*s  %-*s  %*s  %*s  %s\n" w1 a w2 m w3 ov w4 nv al);
        if i = 0 then
          Buffer.add_string b
            (Printf.sprintf "  %s\n"
               (String.make (w1 + w2 + w3 + w4 + 6 + String.length al) '-')))
      rows);
  Buffer.contents b
