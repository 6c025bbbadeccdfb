(* What one workload run hands back: operation accounting, end-to-end
   metrics (measured with tracing off) and per-layer metrics (from the
   traced replay). *)

type t = {
  acct : Check.acct;
  mutable correct : bool;
  e2e : (string, float) Hashtbl.t;
  layer : (string, float) Hashtbl.t;
}

let create () =
  { acct = Check.acct (); correct = true; e2e = Hashtbl.create 8; layer = Hashtbl.create 64 }

let e2e r name v = Hashtbl.replace r.e2e name v
let layer r name v = Hashtbl.replace r.layer name v
let layer_opt r name = Option.iter (layer r name)

(* The machine's stolen CPU share since [before] (a [Util.cpu_ticks]
   reading taken when the timed phase began): the host load every
   timing of the run shares. *)
let host_steal r before = layer r "host.steal_pct" (Util.steal_pct before (Util.cpu_ticks ()))

(* Set up [setups] times, each in a fresh directory under [workdir], one
   after the other, tearing each down and removing its directory before
   the next, and keep the last; setup_s is the median. A server spawned
   while another setup's client connection is open would inherit that
   socket (it is not close-on-exec) and keep the connection alive after
   the client closes it, so the setups must not overlap. *)
let repeated_setup r ~setups ~workdir ~teardown setup =
  let rec go k times =
    let dir = Filename.concat workdir (Printf.sprintf "setup%d" k) in
    let v, dt = Util.time (fun () -> setup dir) in
    if k + 1 >= setups then begin
      e2e r "setup_s" (Util.median (dt :: times));
      v
    end
    else begin
      teardown v;
      Util.rm_rf dir;
      go (k + 1) (dt :: times)
    end
  in
  Util.phase "setup" (fun () -> go 0 [])

(* Per-class latency percentiles, in ms. *)
let latencies r cls samples_s =
  let ms = List.map (fun s -> s *. 1000.) samples_s in
  if ms <> [] then begin
    layer r ("class." ^ cls ^ "_p50_ms") (Util.median ms);
    layer_opt r ("class." ^ cls ^ "_p90_ms") (Util.p90 ms)
  end

(* Per-layer figures derived from a traced replay's spans, per replayed
   operation. *)
let span_layers r =
  let ops = List.length (Trace.ops ()) in
  let per_op x = if ops = 0 then 0. else x /. float_of_int ops in
  let group prefix =
    List.fold_left
      (fun acc (name, self) ->
        if String.length name >= String.length prefix
           && String.sub name 0 (String.length prefix) = prefix
        then acc +. self
        else acc)
      0. (Trace.self_times ~skip:"probe" ())
  in
  List.iter
    (fun (metric, prefix) -> layer r metric (per_op (group prefix) *. 1000.))
    [
      ("self.op_ms", "op");
      ("self.store_ms", "store.");
      ("self.serial_ms", "serial.");
      ("self.solver_ms", "solver.");
      ("self.verify_ms", "verify.");
      ("self.protocol_ms", "protocol.");
      ("self.sched_ms", "sched.");
      ("self.client_ms", "client.");
    ];
  let roots = Trace.ops () in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. roots in
  layer r "gc.minor_mwords" (per_op (sum (fun s -> s.Trace.minor_words)) /. 1e6);
  layer r "gc.major_mwords" (per_op (sum (fun s -> s.Trace.major_words)) /. 1e6);
  layer r "gc.major_collections" (per_op (sum (fun s -> float_of_int s.Trace.major_collections)));
  layer r "trace.spans" (float_of_int (List.length (Trace.spans ())))

let mean_ms name = Util.mean (Trace.durations name) *. 1000.
let mean_us name = Util.mean (Trace.durations name) *. 1e6

(* Totals of the per-round records the runtime pushed into the
   [Metrics.buffer] sinks of the replayed solves. *)
let local_layers r (records : Lll_local.Metrics.round_record list) =
  let module M = Lll_local.Metrics in
  let ends_with suffix s =
    let ls = String.length s and lx = String.length suffix in
    ls >= lx && String.sub s (ls - lx) lx = suffix
  in
  let round_us pred =
    Util.mean
      (List.filter_map
         (fun (x : M.round_record) ->
           if pred x.M.phase then Some (float_of_int x.M.wall_ns /. 1000.) else None)
         records)
  in
  layer r "local.rounds"
    (float_of_int
       (List.length
          (List.filter (fun x -> x.M.par_width > 0 && x.M.phase <> "fix-sweep") records)));
  layer r "local.messages" (float_of_int (M.total_messages records));
  layer r "local.round_us.coloring" (round_us (ends_with "coloring"));
  layer r "local.round_us.sweep" (round_us (ends_with "sweep"));
  layer r "local.par_width"
    (float_of_int (List.fold_left (fun acc x -> max acc x.M.par_width) 0 records))

(* Per-engine busy time from [solver.<engine>] spans. *)
let solver_layers r =
  let total = ref 0. in
  List.iter
    (fun (s : Trace.span) ->
      let n = s.Trace.name in
      if String.length n > 7 && String.sub n 0 7 = "solver." then begin
        total := !total +. Trace.duration s;
        let key = n ^ "_s" in
        layer r key (Trace.duration s +. Option.value (Hashtbl.find_opt r.layer key) ~default:0.)
      end)
    (Trace.spans ());
  layer r "solver.busy_s" !total

(* The metrics every result line carries, in the order of
   BENCHMARK.json. A workload that has no such layer or class reports
   0 for it (per-layer only; every end-to-end metric is measured on
   every workload). *)
let end_to_end = [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("max_rss_mb", "MiB"); ("p50_ms", "ms") ]

let engines =
  [ "distr"; "mp3"; "dist3"; "mp2"; "dist2"; "mt-par"; "mt-par-rand"; "mt-par-all"; "sinkless-orient";
    "weak-split-greedy" ]

let per_layer =
  List.concat
    [
      List.concat_map
        (fun c -> [ ("class." ^ c ^ "_p50_ms", "ms"); ("class." ^ c ^ "_p90_ms", "ms") ])
        [ "memo"; "hot"; "disk"; "cold"; "verify" ];
      [ ("ref.hot_d1_ms", "ms"); ("ref.hot_d2_ms", "ms") ];
      [ ("store.fetch_mem_us", "us"); ("store.fetch_disk_ms", "ms"); ("store.fetch_built_ms", "ms");
        ("store.generate_ms", "ms"); ("store.mem_hits", "count"); ("store.disk_hits", "count");
        ("store.built", "count"); ("store.evictions", "count"); ("store.waits", "count") ];
      [ ("serial.decode_ms", "ms"); ("serial.encode_ms", "ms"); ("serial.artifact_mb", "MiB") ];
      [ ("graph.girth_attempts", "count"); ("graph.girth_swaps", "count") ];
      ("solver.busy_s", "s") :: List.map (fun e -> ("solver." ^ e ^ "_s", "s")) engines;
      [ ("solver.rounds", "count"); ("verify.check_ms", "ms") ];
      [ ("local.rounds", "count"); ("local.messages", "count"); ("local.round_us.coloring", "us");
        ("local.round_us.sweep", "us"); ("local.par_width", "count") ];
      [ ("protocol.encode_us", "us"); ("protocol.decode_us", "us"); ("protocol.request_kb", "KiB");
        ("protocol.response_kb", "KiB"); ("sched.handle_ms", "ms"); ("serve.transport_ms", "ms");
        ("client.parse_ms", "ms"); ("serve.memo_hits", "count"); ("serve.memo_misses", "count");
        ("serve.tier_mismatch", "count") ];
      [ ("scenario.measure_s", "s"); ("scenario.fit_ms", "ms") ];
      [ ("gc.minor_mwords", "Mwords"); ("gc.major_mwords", "Mwords"); ("gc.major_collections", "count") ];
      List.map
        (fun l -> ("self." ^ l ^ "_ms", "ms"))
        [ "op"; "store"; "serial"; "solver"; "verify"; "protocol"; "sched"; "client" ];
      [ ("host.steal_pct", "%"); ("trace.ops_per_s", "1/s"); ("trace.untraced_ops_per_s", "1/s"); ("trace.overhead_pct", "%");
        ("trace.spans", "count") ];
    ]
