(* The benchmark's entry point: one workload per invocation, one JSON result
   line on stdout.

     main.exe --workload corpus-verdict|serve-small|serve-large
              --seed N --seconds S --trace 0|1 --cli PATH [--spans FILE]
     main.exe --self-test --cli PATH

   With --trace 0 the result carries the end-to-end metrics, measured
   with tracing off; with --trace 1 it carries the per-layer metrics of
   a separate traced replay (the same untraced timed phase runs first,
   so its class latencies and counts are reported too). Every run works
   in its own temporary directory under [.perfbench_tmp/] of the
   current directory, removed on every exit path together with any
   server child. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH [--spans FILE]\n\
    \       main.exe --self-test --cli PATH";
  exit 2

type args = {
  mutable workload : string;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable cli : string;
  mutable self_test : bool;
  mutable spans : string option;
}

let parse argv =
  let a =
    { workload = ""; seed = None; seconds = 10.; trace = false; cli = ""; self_test = false; spans = None }
  in
  let int_arg flag v = match int_of_string_opt v with Some i -> i | None -> failwith (flag ^ ": not an integer") in
  let rec go = function
    | "--workload" :: v :: tl -> a.workload <- v; go tl
    | "--seed" :: v :: tl -> a.seed <- Some (int_arg "--seed" v); go tl
    | "--seconds" :: v :: tl ->
      a.seconds <- (match float_of_string_opt v with Some s when s > 0. -> s | _ -> failwith "--seconds: not a positive number");
      go tl
    | "--trace" :: v :: tl ->
      a.trace <- (match v with "0" -> false | "1" -> true | _ -> failwith "--trace: 0 or 1");
      go tl
    | "--cli" :: v :: tl -> a.cli <- v; go tl
    | "--spans" :: v :: tl -> a.spans <- Some v; go tl
    | "--self-test" :: tl -> a.self_test <- true; go tl
    | [] -> ()
    | x :: _ -> failwith ("unknown argument " ^ x)
  in
  (try go (List.tl (Array.to_list argv)) with Failure m -> prerr_endline m; usage ());
  a

(* ---- the per-run directory, removed on every exit path ---- *)

let workdir = ref None

let cleanup () =
  Server.kill_all ();
  Option.iter Util.rm_rf !workdir;
  workdir := None;
  (* the parent goes too once no other run is using it *)
  try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ()

let make_workdir name =
  let dir = Filename.concat ".perfbench_tmp" (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Util.rm_rf dir;
  Util.mkdir_p dir;
  workdir := Some dir;
  dir

let () =
  at_exit cleanup;
  let on_signal = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal

(* ---- running one workload ---- *)

let workloads = [ "corpus-verdict"; "serve-small"; "serve-large" ]

let run_workload ~cli ~short ~seed ~seconds ~trace name =
  let workdir = make_workdir name in
  Trace.reset ();
  let r =
    match name with
    | "corpus-verdict" ->
      Corpus_wl.run ~scale:(if short then Corpus_wl.short else Corpus_wl.full) ~seed ~seconds ~trace ~workdir
    | "serve-small" ->
      Serve_wl.run_small ~cli ~scale:(if short then Serve_wl.small_short else Serve_wl.small_full) ~seed
        ~seconds ~trace ~workdir
    | "serve-large" ->
      Serve_wl.run_large ~cli ~scale:(if short then Serve_wl.large_short else Serve_wl.large_full) ~seed
        ~seconds ~trace ~workdir
    | w -> failwith ("unknown workload " ^ w)
  in
  cleanup ();
  r

let result_line ~trace (r : Report.t) =
  let attempted, failed = Check.totals r.Report.acct in
  let table, spec = if trace then (r.Report.layer, Report.per_layer) else (r.Report.e2e, Report.end_to_end) in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (Hashtbl.find_opt table name) ~default:0. in
        let v = if Float.is_nan v then 0. else v in
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Util.json_string name) (Util.json_number v)
          (Util.json_string unit))
      spec
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.Report.correct && attempted > 0 && failed = 0) attempted failed (String.concat ", " metrics)

let print_classes (r : Report.t) =
  List.iter
    (fun (cls, n, f) -> Printf.printf "# class %-16s attempted %6d failed %d\n" cls n f)
    (Check.classes r.Report.acct)

let () =
  let a = parse Sys.argv in
  if a.cli = "" then usage ();
  if a.self_test then exit (Selftest.run ~cli:a.cli ~run:(run_workload ~cli:a.cli ~short:true));
  let seed = match a.seed with Some s -> s | None -> usage () in
  if not (List.mem a.workload workloads) then usage ();
  let r =
    run_workload ~cli:a.cli ~short:false ~seed ~seconds:a.seconds ~trace:a.trace a.workload
  in
  if a.trace then begin
    List.iter
      (fun (name, self) -> Printf.printf "# self %-24s %10.3f ms\n" name (self *. 1000.))
      (Trace.self_times ());
    let path =
      match a.spans with
      | Some p -> p
      | None -> Printf.sprintf ".perfbench_out/spans-%s-seed%d.json" a.workload seed
    in
    Util.mkdir_p (Filename.dirname path);
    Trace.write path;
    Printf.printf "# %d spans written to %s\n" (List.length (Trace.spans ())) path
  end;
  print_classes r;
  Option.iter
    (Printf.printf "# host steal %.1f%% of the machine's CPU time during the timed phase\n")
    (Hashtbl.find_opt r.Report.layer "host.steal_pct");
  print_endline (result_line ~trace:a.trace r)
