(* Tests for lane-exact span counters under Par, deterministic quantile
   histograms (Obs.Qhist) and the OpenMetrics exporter.

   The load-bearing assertions are the exactness ones: spans opened in
   concurrent Par lanes must see only their own work (Span diffs the
   lane-local registry view, not merged snapshots), and Qhist bucket
   counts / quantiles must come out bit-identical whether a value
   stream is observed serially or split across 4 domains. *)

let check_int = Alcotest.(check int)

(* Fixed synthetic value stream: integer LCG + ldexp only, so the
   multiset is identical on every host and the only question is
   whether the histogram machinery preserves it. *)
let lcg_stream ~seed n =
  let x = ref seed in
  List.init n (fun _ ->
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let m = 1.0 +. (float_of_int (!x land 0xFFFF) /. 65536.0) in
      let e = ((!x lsr 16) mod 20) - 10 in
      Float.ldexp m e)

(* ---- spans: lane-local exactness under Par ---- *)

(* Run [f] under 4 domains with a memory sink behind a mutex (spans
   close concurrently on several domains); return the captured spans. *)
let traced_par f =
  let sink, captured = Obs.Sink.memory () in
  let mu = Mutex.create () in
  let locked g r = Mutex.protect mu (fun () -> g r) in
  Obs.Sink.set
    {
      Obs.Sink.on_span = locked sink.Obs.Sink.on_span;
      on_event = locked sink.Obs.Sink.on_event;
      flush = sink.Obs.Sink.flush;
    };
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
    (fun () -> Vmor.Par.with_domains (Some 4) f);
  (captured ()).Obs.Sink.spans

let find_span spans name =
  match List.filter (fun (s : Obs.Sink.span_record) -> s.name = name) spans with
  | [ s ] -> s
  | l -> Alcotest.failf "expected one %s span, got %d" name (List.length l)

let pairs = Alcotest.(list (pair string int))
let named name deltas = List.map (fun (c, n) -> (name c, n)) deltas
let items = List.init 16 (fun i -> i + 1)
let item_name i = Printf.sprintf "t.item.%d" i

(* One item's work: i matvecs, a pause that makes concurrent items
   overlap, then 10 i axpy flops. *)
let item_work i =
  Obs.Metrics.incr ~by:i Obs.Metrics.Matvec;
  Unix.sleepf 0.002;
  Obs.Cost.charge Obs.Cost.Flops_axpy (10 * i)

let check_item spans i =
  let s = find_span spans (item_name i) in
  Alcotest.check pairs
    (Printf.sprintf "item %d counters" i)
    [ ("matvec", i) ] s.Obs.Sink.counters;
  Alcotest.check pairs
    (Printf.sprintf "item %d cost" i)
    [ ("flops_axpy", 10 * i) ] s.Obs.Sink.cost

(* The enclosing span's deltas equal the process-wide deltas. *)
let check_region spans ~snap ~csnap =
  let region = find_span spans "t.region" in
  Alcotest.check pairs "region counters = process delta"
    (named Obs.Metrics.name (Obs.Metrics.since snap))
    region.Obs.Sink.counters;
  Alcotest.check pairs "region cost = process delta"
    (named Obs.Cost.name (Obs.Cost.since csnap))
    region.Obs.Sink.cost;
  region

(* Spans opened inside Par.map_list items under 4 domains each see
   exactly their own item's Metrics/Cost deltas, even though the items
   run concurrently; the span enclosing the region sees all of it,
   because Par folds the worker lanes' deltas into the caller's carry
   at join.  Diffing merged process-wide counters instead would smear
   the items into each other's spans. *)
let test_concurrent_span_exactness () =
  let snap = Obs.Metrics.snapshot () and csnap = Obs.Cost.snapshot () in
  let spans =
    traced_par (fun () ->
        Obs.Span.with_ ~name:"t.region" (fun () ->
            ignore
              (Vmor.Par.map_list
                 (fun i -> Obs.Span.with_ ~name:(item_name i) (fun () -> item_work i))
                 items)))
  in
  List.iter (check_item spans) items;
  let region = check_region spans ~snap ~csnap in
  Alcotest.check pairs "region counters inclusive of every lane"
    [ ("matvec", List.fold_left ( + ) 0 items) ] region.Obs.Sink.counters

(* Nesting inside a lane: an item's inner span sees only its own
   charge, the item span is inclusive of it, and depths are per lane. *)
let test_nested_spans_in_lanes () =
  let spans =
    traced_par (fun () ->
        ignore
          (Vmor.Par.map_list
             (fun i ->
               Obs.Span.with_ ~name:(item_name i) (fun () ->
                   item_work i;
                   Obs.Span.with_ ~name:(Printf.sprintf "t.inner.%d" i) (fun () ->
                       Obs.Metrics.incr ~by:100 Obs.Metrics.Lu_solve)))
             items))
  in
  List.iter
    (fun i ->
      let inner = find_span spans (Printf.sprintf "t.inner.%d" i) in
      let outer = find_span spans (item_name i) in
      check_int "inner depth" 1 inner.Obs.Sink.depth;
      check_int "item depth" 0 outer.Obs.Sink.depth;
      Alcotest.check pairs "inner sees only its own counters"
        [ ("lu_solve", 100) ] inner.Obs.Sink.counters;
      Alcotest.check pairs "item counters inclusive of inner"
        [ ("lu_solve", 100); ("matvec", i) ] outer.Obs.Sink.counters)
    items

(* A raising item still closes its span with exact deltas, Par still
   folds every lane at join, and the lowest-index exception surfaces
   after the enclosing span closed inclusively. *)
let test_raising_item_keeps_region_inclusive () =
  let snap = Obs.Metrics.snapshot () and csnap = Obs.Cost.snapshot () in
  let spans =
    traced_par (fun () ->
        match
          Obs.Span.with_ ~name:"t.region" (fun () ->
              Vmor.Par.map_list
                (fun i ->
                  Obs.Span.with_ ~name:(item_name i) (fun () ->
                      item_work i;
                      if i mod 5 = 0 then failwith (item_name i)))
                items)
        with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure m -> Alcotest.(check string) "lowest item wins" "t.item.5" m)
  in
  List.iter (check_item spans) items;
  ignore (check_region spans ~snap ~csnap)

(* ---- qhist: geometry, merge exactness, quantile determinism ---- *)

let test_qhist_geometry () =
  (* below-range, zero, negative and NaN land in underflow *)
  check_int "zero underflows" 0 (Obs.Qhist.bucket_index 0.0);
  check_int "negative underflows" 0 (Obs.Qhist.bucket_index (-1.0));
  check_int "nan underflows" 0 (Obs.Qhist.bucket_index Float.nan);
  check_int "inf overflows"
    (Obs.Qhist.n_buckets - 1)
    (Obs.Qhist.bucket_index Float.infinity);
  (* each in-range value sits strictly under its bucket's upper edge
     and at-or-above the previous bucket's (half-open [lower, upper)) *)
  List.iter
    (fun v ->
      let i = Obs.Qhist.bucket_index v in
      Alcotest.(check bool)
        (Printf.sprintf "%g < upper_bound %d" v i)
        true
        (v < Obs.Qhist.upper_bound i);
      Alcotest.(check bool)
        (Printf.sprintf "%g >= upper_bound %d" v (i - 1))
        true
        (v >= Obs.Qhist.upper_bound (i - 1)))
    [ 1e-9; 0.001; 0.5; 0.9999; 1.0; 1.25; 3.0; 1000.0; 1e9 ];
  (* a dyadic boundary value counts toward the higher bucket: 1.0 is
     the lower edge of its bucket, i.e. the previous upper edge *)
  let i1 = Obs.Qhist.bucket_index 1.0 in
  Alcotest.(check (float 0.0))
    "1.0 sits on its bucket's lower edge" 1.0
    (Obs.Qhist.upper_bound (i1 - 1))

let test_qhist_merge_determinism () =
  let values = lcg_stream ~seed:42 2000 in
  List.iter (Obs.Qhist.observe "t.qh.serial") values;
  Vmor.Par.with_domains (Some 4) (fun () ->
      ignore
        (Vmor.Par.map_list (fun v -> Obs.Qhist.observe "t.qh.par" v) values));
  let vs =
    match Obs.Qhist.view "t.qh.serial" with
    | Some v -> v
    | None -> Alcotest.fail "serial view missing"
  in
  let vp =
    match Obs.Qhist.view "t.qh.par" with
    | Some v -> v
    | None -> Alcotest.fail "parallel view missing"
  in
  check_int "counts equal" vs.Obs.Qhist.count vp.Obs.Qhist.count;
  Alcotest.(check (array int))
    "bucket counts bit-identical across domain splits" vs.Obs.Qhist.buckets
    vp.Obs.Qhist.buckets;
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "p%g bit-identical" (100.0 *. q))
        true
        (Float.equal (Obs.Qhist.quantile vs q) (Obs.Qhist.quantile vp q)))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  (* quantiles are monotone in q and live inside [min, max] bucket span *)
  let p50 = Obs.Qhist.quantile vs 0.5 in
  let p99 = Obs.Qhist.quantile vs 0.99 in
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  Alcotest.(check bool)
    "nonzero_buckets positive" true
    (Obs.Qhist.nonzero_buckets vs > 0)

let test_qhist_moments () =
  List.iter
    (fun v -> Obs.Qhist.observe "t.qh.sd" (float_of_int v))
    [ 2; 4; 4; 4; 5; 5; 7; 9 ];
  let v =
    match Obs.Qhist.view "t.qh.sd" with
    | Some v -> v
    | None -> Alcotest.fail "view missing"
  in
  check_int "count" 8 v.Obs.Qhist.count;
  Alcotest.(check (float 1e-12)) "mean" 5.0 (Obs.Qhist.mean v);
  Alcotest.(check (float 1e-12)) "stddev" 2.0 (Obs.Qhist.stddev v);
  Alcotest.(check (float 0.0)) "min" 2.0 v.Obs.Qhist.minv;
  Alcotest.(check (float 0.0)) "max" 9.0 v.Obs.Qhist.maxv

(* every instrumented span close feeds its duration into the
   "span.<name>" qhist (under the null sink spans don't run at all —
   that is the zero-overhead contract, not a missed feed) *)
let test_span_feeds_qhist () =
  let before =
    match Obs.Qhist.view "span.t.fed" with
    | Some v -> v.Obs.Qhist.count
    | None -> 0
  in
  let sink, _captured = Obs.Sink.memory () in
  Obs.Sink.set sink;
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
    (fun () ->
      Obs.Span.with_ ~name:"t.fed" (fun () -> ());
      Obs.Span.with_ ~name:"t.fed" (fun () -> ()));
  match Obs.Qhist.view "span.t.fed" with
  | Some v -> check_int "span durations recorded" (before + 2) v.Obs.Qhist.count
  | None -> Alcotest.fail "span qhist missing"

(* the CSV summary carries per-stat columns (not a packed blob) *)
let test_metrics_csv_columns () =
  Obs.Metrics.observe "t.csv.h" 2.0;
  Obs.Metrics.observe "t.csv.h" 4.0;
  let csv = Obs.Metrics.to_csv_string () in
  let contains needle =
    let nl = String.length needle and l = String.length csv in
    let rec go i = i + nl <= l && (String.sub csv i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "per-stat header" true
    (contains "kind,name,value,count,sum,sumsq,min,max,stddev");
  Alcotest.(check bool) "histogram row present" true (contains "histogram,t.csv.h")

(* ---- openmetrics: render/validate round trip ---- *)

let test_openmetrics_round_trip () =
  Obs.Metrics.incr ~by:5 Obs.Metrics.Matvec;
  Obs.Metrics.observe "t.om.h" 0.25;
  Obs.Metrics.observe "t.om.h" 4.0;
  (* overflow-bucket population must not duplicate the terminal +Inf
     sample (its upper edge is +Inf already) *)
  Obs.Metrics.observe "t.om.h" Float.infinity;
  let text = Obs.Openmetrics.render () in
  (match Obs.Openmetrics.validate text with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("render failed its own validator: " ^ m));
  let contains needle =
    let nl = String.length needle and l = String.length text in
    let rec go i =
      i + nl <= l && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "counter family" true (contains "vmor_matvec_total");
  Alcotest.(check bool)
    "histogram family" true
    (contains "vmor_hist_t_om_h_bucket");
  Alcotest.(check bool) "+Inf bucket" true (contains "le=\"+Inf\"");
  Alcotest.(check bool) "terminal EOF" true (contains "# EOF")

let test_openmetrics_validator_rejects () =
  let text = Obs.Openmetrics.render () in
  let reject label mutate =
    match Obs.Openmetrics.validate (mutate text) with
    | Ok () -> Alcotest.fail (label ^ ": corruption not caught")
    | Error _ -> ()
  in
  reject "missing EOF" (fun t ->
      (* strip the trailing "# EOF\n" *)
      String.sub t 0 (String.length t - 6));
  reject "garbage line" (fun t -> "!! not a metric line\n" ^ t);
  reject "content after EOF" (fun t -> t ^ "vmor_matvec_total 1\n")

(* Traces written before the scope bracket was retired carry
   "type":"scope" lines; Trace.load skips them and keeps the rest. *)
let test_legacy_scope_lines_skipped () =
  let path = Filename.temp_file "vmor_legacy" ".jsonl" in
  let oc = open_out path in
  output_string oc
    "{\"type\":\"scope\",\"name\":\"request\",\"depth\":0,\"start\":1.0,\
     \"dur\":0.5,\"counters\":{\"matvec\":7},\"cost.flops_axpy\":70}\n\
     {\"type\":\"span\",\"name\":\"t.kept\",\"depth\":0,\"start\":1.0,\
     \"dur\":0.25,\"counters\":{\"matvec\":3}}\n";
  close_out oc;
  let t =
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Obs.Trace.load path)
  in
  (match t.Obs.Trace.spans with
  | [ s ] ->
    Alcotest.(check string) "span kept" "t.kept" s.Obs.Sink.name;
    check_int "span counter" 3
      (Option.value ~default:0 (List.assoc_opt "matvec" s.Obs.Sink.counters))
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  check_int "scope line dropped" 1 (List.length t.Obs.Trace.roots)

let suite =
  [
    ( "span.lanes",
      [
        Alcotest.test_case "concurrent exactness (4 domains)" `Quick
          test_concurrent_span_exactness;
        Alcotest.test_case "nested spans in lanes" `Quick
          test_nested_spans_in_lanes;
        Alcotest.test_case "raising item keeps region inclusive" `Quick
          test_raising_item_keeps_region_inclusive;
      ] );
    ( "qhist.determinism",
      [
        Alcotest.test_case "bucket geometry" `Quick test_qhist_geometry;
        Alcotest.test_case "merge + quantile determinism" `Quick
          test_qhist_merge_determinism;
        Alcotest.test_case "moments" `Quick test_qhist_moments;
        Alcotest.test_case "span durations feed qhist" `Quick
          test_span_feeds_qhist;
        Alcotest.test_case "csv per-stat columns" `Quick
          test_metrics_csv_columns;
      ] );
    ( "openmetrics.format",
      [
        Alcotest.test_case "render/validate round trip" `Quick
          test_openmetrics_round_trip;
        Alcotest.test_case "validator rejects corruption" `Quick
          test_openmetrics_validator_rejects;
        Alcotest.test_case "legacy scope lines skipped" `Quick
          test_legacy_scope_lines_skipped;
      ] );
  ]
