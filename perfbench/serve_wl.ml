(* serve-small and serve-large: closed-loop clients against a spawned
   [lll_cli serve]. Each request belongs to one pure class (one family,
   one size, one engine, one store tier), and latency percentiles are
   taken per class only: a pooled percentile over requests that differ
   by three orders of magnitude describes none of them. *)

module Protocol = Lll_serve.Protocol
module Client = Lll_serve.Client
module Sched = Lll_serve.Sched
module Spec = Lll_store.Spec
module Store = Lll_store.Store
module Metrics = Lll_local.Metrics
module Solver = Lll_core.Solver
module Verify = Lll_core.Verify
module Serial = Lll_core.Serial

type req = {
  cls : string;
  family : string;
  n : int;
  gen_seed : int;
  solver : string;  (** [""] for a verify request *)
  seed : int;
  domains : int option;  (** [None]: the server's default *)
  memo : bool;
  upload : string;  (** the assignment a verify request uploads *)
}

type answer = { q : req; lat : float; header : (string * string) list; digest : string }

let spec_of q =
  Spec.of_family_params ~family:q.family ~n:q.n ~degree:3 ~seed:q.gen_seed ~at_threshold:false

let frame_of q =
  let inst =
    [ ("family", q.family); ("n", string_of_int q.n); ("degree", "3");
      ("gen-seed", string_of_int q.gen_seed); ("at-threshold", "0") ]
  in
  if q.solver = "" then { Protocol.header = ("op", "verify") :: inst; body = q.upload }
  else
    {
      Protocol.header =
        (("op", "solve") :: inst)
        @ [ ("solver", q.solver); ("seed", string_of_int q.seed) ]
        @ (if q.memo then [] else [ ("memo", "0") ])
        @ (match q.domains with Some d -> [ ("domains", string_of_int d) ] | None -> []);
      body = "";
    }

(* One closed-loop request; also hands back the response body. *)
let send conn q =
  let resp, lat = Util.time (fun () -> Client.request conn (frame_of q)) in
  let res = resp.Client.result in
  ({ q; lat; header = res.Protocol.header; digest = Digest.string res.Protocol.body }, res.Protocol.body)

let field a k = List.assoc_opt k a.header
let flag b = if b then "1" else "0"

(* ---- checks ---- *)

type checker = {
  default_domains : int;
  directs : (string, Check.direct) Hashtbl.t;
  builds : (string, Lll_core.Instance.t) Hashtbl.t;  (** fresh builds of the verify specs *)
  verdicts : (string, int list option) Hashtbl.t;
}

let checker ~default_domains =
  { default_domains; directs = Hashtbl.create 64; builds = Hashtbl.create 4; verdicts = Hashtbl.create 8 }

(* A fresh build of a verify request's spec, kept for its other uploads. *)
let build c q =
  let id = Spec.to_string (spec_of q) in
  match Hashtbl.find_opt c.builds id with
  | Some inst -> inst
  | None ->
    let inst = Spec.build (spec_of q) in
    Hashtbl.add c.builds id inst;
    inst

let domains_of c q = Option.value q.domains ~default:c.default_domains

(* The in-process solve with the request's (spec, solver, seed, domains),
   on a fresh build of the spec; memoized per identity. *)
let direct c q =
  let id =
    Printf.sprintf "%s|%s|%d|%d" (Spec.to_string (spec_of q)) q.solver q.seed (domains_of c q)
  in
  match Hashtbl.find_opt c.directs id with
  | Some d -> d
  | None ->
    let d =
      Check.direct_solve ~solver:q.solver ~seed:q.seed ~domains:(Some (domains_of c q))
        (Spec.build (spec_of q))
    in
    Hashtbl.add c.directs id d;
    d

(* The bad events of a fresh build that occur under the uploaded
   assignment; [None] when the upload is not a total assignment. *)
let verdict c q =
  let id = Spec.to_string (spec_of q) ^ "|" ^ Digest.string q.upload in
  match Hashtbl.find_opt c.verdicts id with
  | Some v -> v
  | None ->
    let v = Option.bind (Util.values_of_csv q.upload) (Check.occurring (build c q)) in
    Hashtbl.add c.verdicts id v;
    v

let problem c a =
  if field a "status" <> Some "ok" then
    Some ("status=error: " ^ Option.value (field a "error") ~default:"")
  else if field a "key" <> Some (Spec.key (spec_of a.q)) then Some "answer names another instance"
  else if a.q.solver = "" then
    match verdict c a.q with
    | None -> Some "upload is not a total assignment"
    | Some occurring ->
      if field a "ok" <> Some (flag (occurring = [])) then
        Some "verify verdict disagrees with the predicate closures"
      else if field a "violated" <> Some (String.concat "," (List.map string_of_int occurring)) then
        Some "verify names other violated events than the predicate closures"
      else None
  else
    let d = direct c a.q in
    match d.Check.d_problem with
    | Some p -> Some ("direct solve: " ^ p)
    | None ->
      if a.digest <> Digest.string d.Check.d_body then Some "served body differs from the direct solve"
      else if field a "ok" <> Some (flag d.Check.d_ok) then Some "served ok differs from the direct solve"
      else if field a "verified" <> Some (flag d.Check.d_verified) then
        Some "served verified differs from the direct solve"
      else None

(* The store tier each class is built to hit. *)
let tier_as_designed a =
  match a.q.cls with
  | "memo" -> field a "memo" = Some "1"
  | "hot" | "ref" -> field a "cache" = Some "hit" && field a "memo" = None
  | "cold" -> field a "cache" = Some "miss"
  | "disk" | "verify" -> field a "cache" = Some "disk"
  | _ -> true

let account r c answers =
  let mismatched = ref 0 in
  List.iter
    (fun a ->
      Check.attempt r.Report.acct a.q.cls;
      Option.iter (fun why -> Check.fail r.Report.acct a.q.cls why) (problem c a);
      if not (tier_as_designed a) then begin
        if !mismatched < 5 then
          Printf.eprintf "class %s answered from tier %s\n%!" a.q.cls
            (Option.value (field a "cache") ~default:"?");
        incr mismatched
      end)
    answers;
  Report.layer r "serve.tier_mismatch" (float_of_int !mismatched)

let server_stats r conn =
  let s = (Client.request conn { Protocol.header = [ ("op", "stats") ]; body = "" }).Client.result in
  let f k = float_of_int (Option.value (Protocol.get_int s k) ~default:0) in
  List.iter
    (fun (metric, key) -> Report.layer r metric (f key))
    [
      ("serve.memo_hits", "memo-hits");
      ("serve.memo_misses", "memo-misses");
      ("store.mem_hits", "hits");
      ("store.evictions", "evictions");
      ("store.waits", "waits");
      ("store.built", "store-built");
      ("store.disk_hits", "store-disk-hits");
    ]

let class_median answers cls =
  Util.median (List.filter_map (fun a -> if a.q.cls = cls then Some (a.lat *. 1000.) else None) answers)

let class_latencies r answers classes =
  List.iter
    (fun cls ->
      Report.latencies r cls (List.filter_map (fun a -> if a.q.cls = cls then Some a.lat else None) answers))
    classes

(* ---- traced replay, in process ---- *)

(* One request through the wire codec and an in-process scheduler, one
   span per layer call. *)
let through_sched sched q =
  let req = Trace.span "protocol.encode" (fun () -> Protocol.encode (frame_of q)) in
  let frame = Trace.span "protocol.decode" (fun () -> Protocol.decode req) in
  let out = ref [] in
  ignore
    (Trace.span "sched.handle" (fun () ->
         Sched.handle_batch sched [ frame ] ~emit:(fun f -> out := f :: !out))
      : [ `Continue | `Shutdown ]);
  let resp = Trace.span "protocol.encode" (fun () -> Protocol.encode (List.hd !out)) in
  Trace.span "client.parse" (fun () ->
      let f = Protocol.decode resp in
      if q.solver <> "" then ignore (Util.values_of_csv f.Protocol.body : int array option));
  (String.length req, String.length resp)

let replay_through_sched sched reqs =
  let t0 = Util.now () in
  let sizes =
    List.mapi (fun i q -> Trace.with_req i (fun () -> Trace.span "op" (fun () -> through_sched sched q))) reqs
  in
  (sizes, float_of_int (List.length reqs) /. (Util.now () -. t0))

(* The layers a scheduler call hides, called one by one on a second
   store handle over the same artifact directory. Memo replays have no
   layers outside the scheduler and are skipped. *)
let probe_layers r store ~default_domains reqs =
  let fetches = ref [] and records = ref [] and artifact = ref [] and rounds = ref 0 in
  List.iteri
    (fun i q ->
      if q.cls <> "memo" then
        Trace.with_req i (fun () ->
            let spec = spec_of q in
            let (inst, src), dt =
              Trace.span "layer-op" (fun () ->
                  let (inst, src), dt = Trace.timed "store.fetch" (fun () -> Store.fetch store spec) in
                  (if q.solver = "" then
                     let a = Array.map Option.some (Option.get (Util.values_of_csv q.upload)) in
                     ignore (Trace.span "verify.check" (fun () -> Verify.check inst a) : Verify.result)
                   else
                     let sink = Metrics.buffer () in
                     let params =
                       { Solver.default_params with Solver.seed = q.seed;
                         domains = Some (Option.value q.domains ~default:default_domains); metrics = sink }
                     in
                     let rep =
                       Trace.span ("solver." ^ q.solver) (fun () -> Solver.solve_by_name ~params q.solver inst)
                     in
                     rounds := !rounds + Option.value rep.Solver.outcome.Solver.rounds ~default:0;
                     records := List.rev_append (Metrics.records sink) !records);
                  ((inst, src), dt))
            in
            fetches := (src, dt) :: !fetches;
            Trace.span "probe" (fun () ->
                match src with
                | `Disk ->
                  let bytes = Util.read_file (Store.materialize store spec) in
                  artifact := float_of_int (String.length bytes) /. 1048576. :: !artifact;
                  ignore (Trace.span "serial.decode" (fun () -> Serial.of_binary_string bytes) : Lll_core.Instance.t)
                | `Built ->
                  ignore (Trace.span "store.generate" (fun () -> Spec.build spec) : Lll_core.Instance.t);
                  ignore (Trace.span "serial.encode" (fun () -> Serial.to_binary_string inst) : string)
                | `Mem -> ())))
    reqs;
  let tier t = List.filter_map (fun (s, dt) -> if s = t then Some dt else None) !fetches in
  Report.layer r "store.fetch_mem_us" (Util.mean (tier `Mem) *. 1e6);
  Report.layer r "store.fetch_disk_ms" (Util.mean (tier `Disk) *. 1000.);
  Report.layer r "store.fetch_built_ms" (Util.mean (tier `Built) *. 1000.);
  Report.layer r "serial.artifact_mb" (Util.mean !artifact);
  Report.layer r "solver.rounds" (float_of_int !rounds);
  Report.local_layers r !records

(* Untraced and traced replays of the same request mix (fresh cold keys
   for each), then the layer probe; [served] are the timed answers the
   replay mirrors, for the transport share. *)
let traced_replay r ~sched ~store ~default_domains ~untraced ~traced ~probe ~served =
  Trace.reset ();
  Trace.enabled := false;
  let _, untraced_ops_per_s = replay_through_sched sched untraced in
  Trace.enabled := true;
  Fun.protect
    ~finally:(fun () -> Trace.enabled := false)
    (fun () ->
      let sizes, traced_ops_per_s = replay_through_sched sched traced in
      probe_layers r store ~default_domains probe;
      Report.span_layers r;
      Report.solver_layers r;
      Report.layer r "trace.ops_per_s" traced_ops_per_s;
      Report.layer r "trace.untraced_ops_per_s" untraced_ops_per_s;
      Report.layer r "trace.overhead_pct" (100. *. (1. -. (traced_ops_per_s /. untraced_ops_per_s)));
      Report.layer r "protocol.encode_us" (Report.mean_us "protocol.encode");
      Report.layer r "protocol.decode_us" (Report.mean_us "protocol.decode");
      Report.layer r "protocol.request_kb" (Util.mean (List.map (fun (q, _) -> float_of_int q /. 1024.) sizes));
      Report.layer r "protocol.response_kb" (Util.mean (List.map (fun (_, p) -> float_of_int p /. 1024.) sizes));
      let handle = Report.mean_ms "sched.handle" in
      Report.layer r "sched.handle_ms" handle;
      Report.layer r "client.parse_ms" (Report.mean_ms "client.parse");
      Report.layer r "serve.transport_ms" ((Util.mean (List.map (fun a -> a.lat) served) *. 1000.) -. handle);
      Report.layer r "verify.check_ms" (Report.mean_ms "verify.check");
      Report.layer r "serial.decode_ms" (Report.mean_ms "serial.decode");
      Report.layer r "serial.encode_ms" (Report.mean_ms "serial.encode");
      Report.layer r "store.generate_ms" (Report.mean_ms "store.generate"))

let rec take k = function x :: tl when k > 0 -> x :: take (k - 1) tl | _ -> []

(* ================= serve-small ================= *)

type small = { n_hot : int; n_ring : int; s_setups : int; replay_rounds : int; ref_pairs : int }

let small_full = { n_hot = 960; n_ring = 960; s_setups = 5; replay_rounds = 30; ref_pairs = 15 }
let small_short = { n_hot = 96; n_ring = 96; s_setups = 1; replay_rounds = 2; ref_pairs = 2 }

(* The server's memory-tier capacity, and the ring keys cycled through
   the disk tier: more than the tier holds. *)
let small_cache = 8
let disk_pop = 10

(* One round: every class, in a seeded order. Between two hot requests
   at most six other keys are fetched (< cache), so the hot instance
   stays resident; the disk keys cycle through more keys than the cache
   holds, so each is evicted before it comes round again. *)
let template = [| "hot"; "hot"; "disk"; "disk"; "cold"; "memo"; "memo"; "memo" |]

type gen = {
  sc : small;
  base : int;  (** per-seed generator-seed block *)
  cold_base : int;
  mutable disk_ctr : int;
  mutable cold_ctr : int;
  mutable memo_ctr : int;
}

let gen sc seed ~cold_base =
  { sc; base = abs seed * 1_000_000; cold_base; disk_ctr = 0; cold_ctr = 0; memo_ctr = 0 }

let plain =
  { cls = ""; family = ""; n = 0; gen_seed = 0; solver = ""; seed = 1; domains = None; memo = false; upload = "" }

(* Timed requests pin [domains=1]: on the shared 2-core host a fresh
   solve at the server's 2-domain default moved 2-5x between runs (the
   per-round domain spawn), so it is measured only in the traced run's
   reference pairs, never in a gated figure. *)
let hot g =
  { plain with cls = "hot"; family = "rank3"; n = g.sc.n_hot; gen_seed = g.base + 7; solver = "dist3";
    domains = Some 1 }

let ring g cls gen_seed = { plain with cls; family = "ring"; n = g.sc.n_ring; gen_seed; solver = "mt-par" }

let next g = function
  | "hot" -> hot g
  | "memo" ->
    g.memo_ctr <- g.memo_ctr + 1;
    { (hot g) with cls = "memo"; seed = 1 + (g.memo_ctr mod 4); memo = true }
  | "disk" ->
    g.disk_ctr <- g.disk_ctr + 1;
    ring g "disk" (g.base + 100 + (g.disk_ctr mod disk_pop))
  | "cold" ->
    g.cold_ctr <- g.cold_ctr + 1;
    ring g "cold" (g.base + g.cold_base + g.cold_ctr)
  | cls -> invalid_arg cls

(* Materialize the disk keys and the hot key, and answer the memo keys. *)
let small_setup_reqs g =
  List.init disk_pop (fun i -> ring g "setup" (g.base + 100 + i))
  @ [ { (hot g) with cls = "setup" } ]
  @ List.init 4 (fun k -> { (hot g) with cls = "setup"; seed = 1 + k; memo = true })

let run_small ~cli ~scale ~seed ~seconds ~trace ~workdir =
  let r = Report.create () in
  let domains = 2 in
  let srv, conn, setup_answers =
    Report.repeated_setup r ~setups:scale.s_setups ~workdir
      ~teardown:(fun (srv, conn, _) ->
        Client.close conn;
        Server.stop srv)
      (fun dir ->
        let srv = Server.spawn ~cli ~dir ~workers:1 ~domains ~cache:small_cache in
        let conn = Client.connect_socket srv.Server.sock in
        let g = gen scale seed ~cold_base:1000 in
        let answers = List.map (fun q -> fst (send conn q)) (small_setup_reqs g) in
        (srv, conn, answers))
  in
  (* timed phase: whole rounds, one closed-loop connection *)
  let g = gen scale seed ~cold_base:1000 in
  let order = Util.rng seed 29 in
  let answers = ref [] in
  let t0 = Util.now () and ticks = Util.cpu_ticks () in
  let rounds = ref 0 in
  while !rounds = 0 || Util.now () -. t0 < seconds do
    Array.iter (fun cls -> answers := fst (send conn (next g cls)) :: !answers) (Util.shuffle order template);
    incr rounds
  done;
  let elapsed = Util.now () -. t0 in
  Report.host_steal r ticks;
  let answers = List.rev !answers in
  Report.e2e r "ops_per_s" (float_of_int (List.length answers) /. elapsed);
  (* reference: the same hot request at domains=1 against the default *)
  let refs =
    if not trace then []
    else
      List.concat
        (List.init scale.ref_pairs (fun _ ->
             [ fst (send conn { (hot g) with cls = "ref" });
               fst (send conn { (hot g) with cls = "ref"; domains = None }) ]))
  in
  server_stats r conn;
  Client.close conn;
  Report.e2e r "max_rss_mb" (Server.peak_rss_mb srv);
  Server.stop srv;
  class_latencies r answers [ "memo"; "hot"; "disk"; "cold" ];
  Report.e2e r "p50_ms" (class_median answers "hot");
  let ref_ms d =
    Util.median
      (List.filter_map (fun a -> if a.q.domains = d then Some (a.lat *. 1000.) else None) refs)
  in
  if trace then begin
    Report.layer r "ref.hot_d1_ms" (ref_ms (Some 1));
    Report.layer r "ref.hot_d2_ms" (ref_ms None);
    let dir = Filename.concat workdir "inproc" in
    let store_dir = Filename.concat dir "store" in
    Util.mkdir_p dir;
    let sched = Sched.create ~capacity:small_cache ~domains ~store_dir () in
    let g' = gen scale seed ~cold_base:500_000 in
    List.iter (fun q -> ignore (through_sched sched q : int * int)) (small_setup_reqs g');
    let classes = List.map (fun a -> a.q.cls) (take (scale.replay_rounds * Array.length template) answers) in
    let untraced = List.map (next g') classes in
    let traced = List.map (next g') classes in
    (* a second store handle over the same directory, warmed like the
       server's (disk keys, then the hot key) *)
    let store = Store.create ~dir:store_dir ~capacity:small_cache () in
    let gp = gen scale seed ~cold_base:700_000 in
    List.iter
      (fun q -> if not q.memo then ignore (Store.fetch store (spec_of q) : Lll_core.Instance.t * Store.source))
      (small_setup_reqs gp);
    let probe = List.map (next gp) classes in
    traced_replay r ~sched ~store ~default_domains:domains ~untraced ~traced ~probe
      ~served:(take (List.length classes) answers);
    (* the runtime figures come from the reference path: the hot spec
       solved in process at the server's 2-domain default *)
    let inst, _ = Store.fetch store (spec_of (hot gp)) in
    let sink = Metrics.buffer () in
    for _ = 1 to scale.ref_pairs do
      let params = { Solver.default_params with Solver.seed = 1; domains = Some domains; metrics = sink } in
      ignore (Solver.solve_by_name ~params "dist3" inst : Solver.report)
    done;
    Report.local_layers r (Metrics.records sink)
  end;
  let c = checker ~default_domains:domains in
  Util.phase "checks" (fun () -> account r c (setup_answers @ answers @ refs));
  r

(* ================= serve-large ================= *)

type large = { n_ring_l : int; n_sink : int; l_setups : int }

let large_full = { n_ring_l = 96000; n_sink = 64000; l_setups = 2 }
let large_short = { n_ring_l = 9600; n_sink = 6400; l_setups = 1 }

(* Two streams, one per connection, each alternating a solve of its own
   ring key with a verify of its own sinkless key: the [disk] class
   (ring, mt-par, disk tier) and the [verify] class (sinkless upload,
   disk tier) each draw samples from both connections. With a one-entry
   memory tier and no key fetched twice in a row by one connection or
   shared between them, every fetch is a disk load. The verify uploads
   alternate between the setup solve's answer and a copy with one
   variable flipped so that a bad event occurs, so both verdicts are
   checked at the same upload size. *)
type stream = { solve_q : req; verify_good : req; verify_bad : req }

let streams sc seed =
  let base = abs seed * 1_000_000 in
  let ring cls k = { plain with cls; family = "ring"; n = sc.n_ring_l; gen_seed = base + k; solver = "mt-par" } in
  let sink cls k =
    { plain with cls; family = "sinkless"; n = sc.n_sink; gen_seed = base + k; solver = "sinkless-orient" }
  in
  [ (ring "disk" 1, sink "verify" 2); (ring "disk" 3, sink "verify" 4) ]

let verify_of q upload = { q with solver = ""; upload }

let run_large ~cli ~scale ~seed ~seconds ~trace ~workdir =
  let r = Report.create () in
  let pairs = streams scale seed in
  let in_threads f xs =
    let results = Array.make (List.length xs) None in
    let ts = List.mapi (fun i x -> Thread.create (fun () -> results.(i) <- Some (f x)) ()) xs in
    List.iter Thread.join ts;
    Array.to_list (Array.map (function Some v -> v | None -> failwith "client thread failed") results)
  in
  (* setup: fresh server and store; each connection has its two keys
     generated and published by solving them once *)
  let setup dir =
    let srv = Server.spawn ~cli ~dir ~workers:2 ~domains:1 ~cache:1 in
    let per_stream =
      in_threads
        (fun (sq, vq) ->
          let conn = Client.connect_socket srv.Server.sock in
          Fun.protect
            ~finally:(fun () -> Client.close conn)
            (fun () ->
              (* the verify key goes last, so the first timed request
                 (a solve of the other key) finds it not in memory *)
              let a_s, _ = send conn { sq with cls = "setup" } in
              let a_v, body = send conn { vq with cls = "setup" } in
              ((sq, verify_of vq body), [ a_s; a_v ])))
        pairs
    in
    (srv, per_stream)
  in
  let srv, per_stream =
    Report.repeated_setup r ~setups:scale.l_setups ~workdir ~teardown:(fun (srv, _) -> Server.stop srv) setup
  in
  let setup_answers = List.concat_map snd per_stream in
  let c = checker ~default_domains:1 in
  let streams =
    List.map
      (fun ((sq, vq), _) ->
        let bad =
          Option.bind (Util.values_of_csv vq.upload) (Check.flip_into_event (build c vq))
          |> Option.map (fun a -> Util.csv_of_assignment (Array.map Option.some a))
        in
        let bad = match bad with Some b -> b | None -> failwith "no single flip makes a sinkless event occur" in
        { solve_q = sq; verify_good = vq; verify_bad = { vq with upload = bad } })
      per_stream
  in
  (* timed phase: two closed-loop connections, whole rounds of solve,
     verify, solve, verify *)
  let t0 = Util.now () and ticks = Util.cpu_ticks () in
  let timed =
    in_threads
      (fun s ->
        let conn = Client.connect_socket srv.Server.sock in
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            let acc = ref [] in
            while !acc = [] || Util.now () -. t0 < seconds do
              List.iter
                (fun q -> acc := fst (send conn q) :: !acc)
                [ s.solve_q; s.verify_good; s.solve_q; s.verify_bad ]
            done;
            (List.rev !acc, Util.now ())))
      streams
  in
  Report.host_steal r ticks;
  (* each connection's rate over its own whole rounds: a round takes
     about 3 s, so one shared end time would add up to 20% of
     quantization to a 15 s run *)
  let answers = List.concat_map fst timed in
  Report.e2e r "ops_per_s"
    (List.fold_left (fun acc (xs, t) -> acc +. (float_of_int (List.length xs) /. (t -. t0))) 0. timed);
  let conn = Client.connect_socket srv.Server.sock in
  server_stats r conn;
  Client.close conn;
  Report.e2e r "max_rss_mb" (Server.peak_rss_mb srv);
  Server.stop srv;
  class_latencies r answers [ "disk"; "verify" ];
  Report.e2e r "p50_ms" (class_median answers "disk");
  if trace then begin
    (* the stopped server's artifact directory already holds every key,
       so the in-process replay finds them on disk as the server did *)
    let sched = Sched.create ~capacity:1 ~domains:1 ~store_dir:srv.Server.store () in
    let mix =
      List.map (fun s -> s.solve_q) streams
      @ List.concat_map (fun s -> [ s.verify_good; s.verify_bad ]) streams
    in
    let store = Store.create ~dir:srv.Server.store ~capacity:1 () in
    traced_replay r ~sched ~store ~default_domains:1 ~untraced:mix ~traced:mix ~probe:mix
      ~served:answers
  end;
  Util.phase "checks" (fun () -> account r c (setup_answers @ answers));
  r
