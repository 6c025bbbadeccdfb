(* The benchmark's self-test: every workload end to end at a short
   scale with every check, traced, then negative cases showing that the
   checks catch a wrong answer — one flipped variable that makes an
   event occur, a wrong round count, and a served body that differs
   from the direct solve. Returns the process exit code. *)

module Spec = Lll_store.Spec
module Run = Lll_scenario.Run
module Corpus = Lll_scenario.Corpus
module Client = Lll_serve.Client

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let caught = Option.is_some
let passed = Option.is_none

let flipped_variable () =
  let inst = Spec.build (Spec.of_family_params ~family:"rank3" ~n:24 ~degree:3 ~seed:5 ~at_threshold:false) in
  let d = Check.direct_solve ~solver:"dist3" ~seed:1 ~domains:(Some 1) inst in
  expect "dist3 on rank3 n=24 passes the closure check" (d.Check.d_problem = None && d.Check.d_verified);
  match Util.values_of_csv d.Check.d_body with
  | None -> expect "dist3 returns a total assignment" false
  | Some values -> (
    expect "closures agree with a correct verified answer"
      (passed (Check.verdict_agrees inst ~verified:true values));
    match Check.flip_into_event inst values with
    | None -> expect "some single flip makes an event occur" false
    | Some flipped ->
      expect "a flipped variable reported as verified is caught"
        (caught (Check.verdict_agrees inst ~verified:true flipped)))

let wrong_round_count () =
  let family = Option.get (Corpus.find "rank3-below") in
  let ms = Run.measure ~grid:[ 24 ] ~seeds:[ 1 ] ~families:[ family ] () in
  match List.find_opt (fun m -> m.Run.engine = "dist3") ms with
  | None -> expect "the corpus measures dist3 on rank3-below" false
  | Some m ->
    expect "a true corpus measurement re-checks" (passed (Corpus_wl.recheck m));
    let r = Option.value m.Run.rounds ~default:0 in
    expect "a wrong round count is caught"
      (caught (Corpus_wl.recheck { m with Run.rounds = Some (r + 1) }))

let differing_body ~cli workdir =
  let srv = Server.spawn ~cli ~dir:(Filename.concat workdir "negative") ~workers:1 ~domains:2 ~cache:8 in
  let conn = Client.connect_socket srv.Server.sock in
  let q = { Serve_wl.plain with Serve_wl.cls = "hot"; family = "rank3"; n = 96; gen_seed = 7; solver = "dist3" } in
  let a, body = Serve_wl.send conn q in
  Client.close conn;
  Server.stop srv;
  let c = Serve_wl.checker ~default_domains:2 in
  expect "a served answer matches its direct solve" (passed (Serve_wl.problem c a));
  let tampered =
    match String.index_opt body ',' with
    | Some i -> String.sub body 0 i ^ "9" ^ String.sub body i (String.length body - i)
    | None -> body ^ "9"
  in
  expect "a served body that differs from the direct solve is caught"
    (caught (Serve_wl.problem c { a with Serve_wl.digest = Digest.string tampered }))

let run ~cli ~run =
  List.iter
    (fun w ->
      let r : Report.t = run ~seed:1 ~seconds:1. ~trace:true w in
      let attempted, failed = Check.totals r.Report.acct in
      expect
        (Printf.sprintf "%s: %d operations, %d failed" w attempted failed)
        (r.Report.correct && attempted > 0 && failed = 0))
    [ "corpus-verdict"; "serve-small"; "serve-large" ];
  let workdir = Filename.concat ".perfbench_tmp" (Printf.sprintf "selftest-%d" (Unix.getpid ())) in
  Util.mkdir_p workdir;
  Fun.protect
    ~finally:(fun () ->
      Server.kill_all ();
      Util.rm_rf workdir)
    (fun () ->
      flipped_variable ();
      wrong_round_count ();
      differing_body ~cli workdir);
  Printf.printf "self-test: %s\n" (if !failures = 0 then "passed" else Printf.sprintf "%d FAILED" !failures);
  if !failures = 0 then 0 else 1
