(* corpus-verdict: the threshold experiment as users run it. Every
   round-accounted engine over the scenario corpus (default grid, every
   family, one corpus seed derived from the workload seed) through
   [Run.measure] + [Run.fit_growth], each pass over a fresh store handle
   on a directory warmed during setup — what [lll_cli scenario --store]
   does in a fresh process. [Run.measure] pins [domains 1], so no domain
   is ever spawned. *)

module Run = Lll_scenario.Run
module Corpus = Lll_scenario.Corpus
module Store = Lll_store.Store
module Spec = Lll_store.Spec
module Solver = Lll_core.Solver
module Serial = Lll_core.Serial
module Verify = Lll_core.Verify
module Metrics = Lll_local.Metrics

type scale = { grid : int list; sample : int; setups : int; latency_n : int; latency_burst : int }

let full = { grid = Corpus.default_grid; sample = 12; setups = 3; latency_n = 96; latency_burst = 5 }
let short = { grid = [ 24; 48 ]; sample = 4; setups = 1; latency_n = 48; latency_burst = 2 }

(* One corpus seed per workload seed (seed 0 gives the corpus's first
   default seed): a pass over both default seeds takes about 15 s on
   the 2-core host, and a run needs two passes for the determinism
   check. *)
let corpus_seeds seed = [ abs seed + 1 ]

(* [Run.measure]'s iteration order: families, then sizes, then seeds. *)
let slices grid seeds =
  List.concat_map
    (fun f -> List.concat_map (fun n -> List.map (fun seed -> (f, n, seed)) seeds) grid)
    Corpus.all

let spec_of (f, n, seed) = f.Corpus.spec ~seed n

let warm ~dir ~grid ~seeds =
  let store = Store.create ~dir () in
  let fetches =
    List.map
      (fun sl ->
        let (_, src), dt = Util.time (fun () -> Store.fetch store (spec_of sl)) in
        (src, dt))
      (slices grid seeds)
  in
  (store, fetches)

let pass ~dir ~grid ~seeds =
  let store = Store.create ~dir () in
  let ms, measure_dt = Util.time (fun () -> Run.measure ~grid ~seeds ~store ()) in
  let _fits, fit_dt = Util.time (fun () -> Run.fit_growth ms) in
  (Array.of_list ms, measure_dt, fit_dt)

(* Re-solve one measurement on a fresh build of its spec, with the
   runner's parameters, and compare. *)
let recheck (m : Run.measurement) =
  match Corpus.find m.Run.family with
  | None -> Some ("unknown family " ^ m.Run.family)
  | Some f -> (
    let inst = Spec.build (f.Corpus.spec ~seed:m.Run.seed m.Run.n) in
    match
      Check.direct_solve ~metrics:(Metrics.buffer ()) ~solver:m.Run.engine ~seed:m.Run.seed
        ~domains:(Some 1) inst
    with
    | exception e -> Some ("engine raised on re-solve: " ^ Printexc.to_string e)
    | d ->
      if d.Check.d_problem <> None then d.Check.d_problem
      else if d.Check.d_rounds <> m.Run.rounds then Some "round count differs on re-solve"
      else if d.Check.d_ok <> m.Run.ok then Some "ok verdict differs on re-solve"
      else if d.Check.d_guaranteed <> m.Run.guaranteed then Some "guarantee differs on re-solve"
      else None)

let describe (m : Run.measurement) =
  Printf.sprintf "%s n=%d seed=%d %s" m.Run.family m.Run.n m.Run.seed m.Run.engine

(* The replay: the same fetches and solves [Run.measure] makes, called
   directly, one span each when tracing is on; with [probe], the single
   layers a pass hides are then called one by one. Returns, in the
   pass's order, each measurement with the engine's assignment and
   verified flag ([None] if it raised), their rate and the store's
   counters. *)
let replay ~probe ~dir ~grid ~seeds r =
  let store = Store.create ~dir () in
  let engines = List.filter (fun s -> (Solver.caps s).Solver.distributed) (Solver.all ()) in
  let records = ref [] and fetch_disk = ref [] and solved = ref [] in
  let t0 = Util.now () in
  let ms =
    List.concat
      (List.mapi
         (fun i ((f, n, seed) as sl) ->
           Trace.with_req i (fun () ->
               Trace.span "op" (fun () ->
                   let (inst, src), dt = Trace.timed "store.fetch" (fun () -> Store.fetch store (spec_of sl)) in
                   if src = `Disk then fetch_disk := dt :: !fetch_disk;
                   List.filter_map
                     (fun s ->
                       let engine = Solver.name s in
                       if (not (Run.engine_included ~engine ~n)) || not (Solver.applicable s inst) then None
                       else begin
                         let sink = Metrics.buffer () in
                         let params = { Solver.default_params with Solver.seed; metrics = sink; domains = Some 1 } in
                         let report =
                           try Some (Trace.span ("solver." ^ engine) (fun () -> Solver.solve ~params s inst))
                           with _ -> None
                         in
                         let recs = Metrics.records sink in
                         records := List.rev_append recs !records;
                         Option.iter (fun rep -> solved := (sl, rep.Solver.outcome.Solver.assignment) :: !solved) report;
                         Some
                           ( {
                               Run.family = f.Corpus.name;
                               engine;
                               n;
                               seed;
                               rounds = Option.bind report (fun rep -> rep.Solver.outcome.Solver.rounds);
                               ok = (match report with Some rep -> rep.Solver.ok | None -> false);
                               guaranteed = Solver.guarantees s inst;
                               round_records = List.length recs;
                               max_sweep_width =
                                 List.fold_left
                                   (fun acc (x : Metrics.round_record) ->
                                     if x.Metrics.par_width > 0 && x.Metrics.phase = "fix-sweep" then
                                       max acc x.Metrics.stepped
                                     else acc)
                                   0 recs;
                             },
                             Option.map
                               (fun rep ->
                                 (rep.Solver.outcome.Solver.assignment, rep.Solver.verify.Verify.ok))
                               report )
                       end)
                     engines)))
         (slices grid seeds))
  in
  let dt = Util.now () -. t0 in
  Report.layer r "store.fetch_disk_ms" (Util.mean !fetch_disk *. 1000.);
  Report.local_layers r !records;
  let st = Store.stats store in
  (* side probes of single layers, outside the replay's timing *)
  if probe then begin
    List.iter
      (fun sl ->
        Trace.span "probe" (fun () ->
            let spec = spec_of sl in
            let bytes = Util.read_file (Store.materialize store spec) in
            let inst = Trace.span "serial.decode" (fun () -> Serial.of_binary_string bytes) in
            ignore (Trace.span "serial.encode" (fun () -> Serial.to_binary_string inst) : string);
            ignore (Trace.span "store.generate" (fun () -> Spec.build spec) : Lll_core.Instance.t);
            Report.layer r "serial.artifact_mb"
              (Float.max
                 (float_of_int (String.length bytes) /. 1048576.)
                 (Option.value (Hashtbl.find_opt r.Report.layer "serial.artifact_mb") ~default:0.))))
      (slices grid seeds);
    List.iter
      (fun (sl, a) ->
        let inst, _ = Store.fetch store (spec_of sl) in
        Trace.span "probe" (fun () ->
            ignore (Trace.span "verify.check" (fun () -> Verify.check inst a) : Verify.result)))
      !solved
  end;
  (Array.of_list ms, float_of_int (List.length ms) /. dt, st)

(* The gated latency: solves of one pure class — [mp3] on the LOCAL
   runtime on the at-threshold rank-3 instance, with the runner's
   parameters — on the warmed store, a burst after each pass so that
   the samples span the timed phase. A pass time would be the
   reciprocal of [ops_per_s] and say nothing of a single solve. *)
let latency_solver ~dir ~n ~seed =
  let f = Option.get (Corpus.find "rank3-at") in
  let inst, _ = Store.fetch (Store.create ~dir ()) (f.Corpus.spec ~seed n) in
  let engine = Solver.find_exn "mp3" in
  let params = { Solver.default_params with Solver.seed; domains = Some 1 } in
  fun () -> snd (Util.time (fun () -> Solver.solve ~params engine inst)) *. 1000.

let run ~scale ~seed ~seconds ~trace ~workdir =
  let r = Report.create () in
  let grid = scale.grid and seeds = corpus_seeds seed in
  (* setup: warm a fresh artifact directory, several times; the last one
     is measured against *)
  let dir, setup_store, setup_fetches =
    Report.repeated_setup r ~setups:scale.setups ~workdir
      ~teardown:(fun _ -> ())
      (fun dir ->
        let store, fetches = warm ~dir ~grid ~seeds in
        (dir, store, fetches))
  in
  (* timed phase: whole passes, at least two for the determinism check,
     each followed by a burst of latency solves *)
  let solve_once = latency_solver ~dir ~n:scale.latency_n ~seed:(List.hd seeds) in
  let t0 = Util.now () and ticks = Util.cpu_ticks () in
  let passes = ref [] and latencies = ref [] in
  while List.length !passes < 2 || Util.now () -. t0 < seconds do
    let p, dt = Util.time (fun () -> pass ~dir ~grid ~seeds) in
    passes := (p, dt) :: !passes;
    latencies := List.init scale.latency_burst (fun _ -> solve_once ()) @ !latencies
  done;
  Report.host_steal r ticks;
  Report.e2e r "max_rss_mb" (Util.vm_hwm_mb 0);
  let passes = List.rev !passes in
  let ops = List.fold_left (fun acc ((ms, _, _), _) -> acc + Array.length ms) 0 passes in
  let elapsed = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. passes in
  Report.e2e r "ops_per_s" (float_of_int ops /. elapsed);
  Report.layer r "scenario.measure_s" (Util.mean (List.map (fun ((_, m, _), _) -> m) passes));
  Report.layer r "scenario.fit_ms" (Util.mean (List.map (fun ((_, _, f), _) -> f *. 1000.) passes));
  let (first, _, _), _ = List.hd passes in
  Report.e2e r "p50_ms" (Util.median !latencies);
  let bad = Array.make (Array.length first) None in
  let mark i why = if bad.(i) = None then bad.(i) <- Some why in
  let against_first replayed =
    if Array.length replayed <> Array.length first then r.Report.correct <- false;
    Array.iteri
      (fun i (m, _) -> if i < Array.length first && m <> first.(i) then mark i "replay differs from the measured pass")
      replayed
  in
  (* untraced replay, in both modes: every engine's assignment, for the
     closure check below *)
  Trace.reset ();
  let replayed, untraced_ops_per_s, _ = Util.phase "replay" (fun () -> replay ~probe:false ~dir ~grid ~seeds r) in
  against_first replayed;
  (* traced replay: per-layer figures, and one more determinism check *)
  if trace then begin
    Trace.enabled := true;
    let traced, traced_ops_per_s, st =
      Fun.protect ~finally:(fun () -> Trace.enabled := false) (fun () -> replay ~probe:true ~dir ~grid ~seeds r)
    in
    against_first traced;
    Report.span_layers r;
    Report.solver_layers r;
    Report.layer r "verify.check_ms" (Report.mean_ms "verify.check");
    Report.layer r "serial.decode_ms" (Report.mean_ms "serial.decode");
    Report.layer r "serial.encode_ms" (Report.mean_ms "serial.encode");
    Report.layer r "store.generate_ms" (Report.mean_ms "store.generate");
    Report.layer r "solver.rounds"
      (float_of_int (Array.fold_left (fun acc (m, _) -> acc + Option.value m.Run.rounds ~default:0) 0 traced));
    let built = List.filter_map (fun (src, dt) -> if src = `Built then Some dt else None) setup_fetches in
    Report.layer r "store.fetch_built_ms" (Util.mean built *. 1000.);
    let ss = Store.stats setup_store in
    let m0 = ss.Store.st_mem and m1 = st.Store.st_mem in
    let module Mc = Lll_store.Memcache in
    Report.layer r "store.mem_hits" (float_of_int (m0.Mc.s_hits + m1.Mc.s_hits));
    Report.layer r "store.disk_hits" (float_of_int (ss.Store.st_disk_hits + st.Store.st_disk_hits));
    Report.layer r "store.built" (float_of_int (ss.Store.st_built + st.Store.st_built));
    Report.layer r "store.evictions" (float_of_int (m0.Mc.s_evictions + m1.Mc.s_evictions));
    Report.layer r "store.waits" (float_of_int (m0.Mc.s_waits + m1.Mc.s_waits));
    Report.layer r "graph.girth_attempts" (float_of_int ss.Store.st_girth.Lll_graph.Generators.gs_attempts);
    Report.layer r "graph.girth_swaps" (float_of_int ss.Store.st_girth.Lll_graph.Generators.gs_swaps);
    Report.layer r "trace.ops_per_s" traced_ops_per_s;
    Report.layer r "trace.untraced_ops_per_s" untraced_ops_per_s;
    Report.layer r "trace.overhead_pct" (100. *. (1. -. (traced_ops_per_s /. untraced_ops_per_s)))
  end;
  (* checks: every replayed assignment against the closures of a fresh
     build of its spec, a seeded sample re-solved on a fresh build, then
     every pass against the first, and guarantees *)
  Util.phase "checks" (fun () ->
      let built = ref None in
      let fresh (m : Run.measurement) =
        let sl = (m.Run.family, m.Run.n, m.Run.seed) in
        match !built with
        | Some (sl', inst) when sl' = sl -> inst
        | _ ->
          let f = Option.get (Corpus.find m.Run.family) in
          let inst = Spec.build (f.Corpus.spec ~seed:m.Run.seed m.Run.n) in
          built := Some (sl, inst);
          inst
      in
      Array.iteri
        (fun i (m, solved) ->
          if i < Array.length first then
            match solved with
            | None -> mark i "engine raised"
            | Some (a, verified) -> Option.iter (mark i) (Check.assignment_problem (fresh m) ~verified a))
        replayed;
      let st = Util.rng seed 17 in
      let sample =
        Array.sub (Util.shuffle st (Array.init (Array.length first) Fun.id)) 0
          (min scale.sample (Array.length first))
      in
      Array.iter (fun i -> Option.iter (mark i) (recheck first.(i))) sample);
  List.iteri
    (fun p ((ms, _, _), _) ->
      Array.iteri
        (fun i (m : Run.measurement) ->
          Check.attempt r.Report.acct "corpus";
          let why =
            if m.Run.guaranteed && not m.Run.ok then Some "guaranteed engine not ok"
            else if i >= Array.length first || m <> first.(i) then Some "pass differs from the first"
            else if p = 0 then bad.(i)
            else None
          in
          Option.iter (fun w -> Check.fail r.Report.acct "corpus" (describe m ^ ": " ^ w)) why)
        ms)
    passes;
  if List.exists (fun ((ms, _, _), _) -> Array.length ms <> Array.length first) passes then
    r.Report.correct <- false;
  r
