(* A spawned [lll_cli serve] child on a unix socket inside the run
   directory, and its bounded shutdown. *)

module Protocol = Lll_serve.Protocol

type t = { pid : int; sock : string; store : string  (** the server's artifact directory *) }

(* Children still running; killed and reaped on every exit path. *)
let live : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let accepts sock =
  Sys.file_exists sock
  &&
  let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      match Unix.connect s (Unix.ADDR_UNIX sock) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let spawn ~cli ~dir ~workers ~domains ~cache =
  Util.mkdir_p dir;
  let sock = Filename.concat dir "srv.sock" and store = Filename.concat dir "store" in
  let argv =
    [| cli; "serve"; "--socket"; sock; "--workers"; string_of_int workers; "--domains";
       string_of_int domains; "--cache"; string_of_int cache; "--store"; store |]
  in
  let pid = Unix.create_process cli argv Unix.stdin Unix.stderr Unix.stderr in
  live := pid :: !live;
  let deadline = Util.now () +. 30. in
  let rec wait () =
    if accepts sock then ()
    else if Util.now () > deadline then failwith "server did not come up within 30 s"
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "server exited during start-up");
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ();
  { pid; sock; store }

let peak_rss_mb t = Util.vm_hwm_mb t.pid

(* Ask for shutdown on a fresh connection with 5 s socket timeouts,
   then reap; SIGKILL once 10 s have passed. Every client connection must
   be closed first: a worker holding an idle connection never accepts
   the shutdown request. *)
let stop t =
  (try
     let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Fun.protect
       ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
       (fun () ->
         Unix.setsockopt_float s Unix.SO_RCVTIMEO 5.;
         Unix.setsockopt_float s Unix.SO_SNDTIMEO 5.;
         Unix.connect s (Unix.ADDR_UNIX t.sock);
         let oc = Unix.out_channel_of_descr s and ic = Unix.in_channel_of_descr s in
         Protocol.write_frame oc { Protocol.header = [ ("op", "shutdown") ]; body = "" };
         ignore (Protocol.read_frame ic : Protocol.frame option))
   with _ -> ());
  let deadline = Util.now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Util.now () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
      end
      else begin
        Unix.sleepf 0.01;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  live := List.filter (( <> ) t.pid) !live
