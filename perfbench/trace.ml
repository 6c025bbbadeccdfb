(* In-memory spans recorded by the benchmark around its calls into the
   library's public functions: name, start, end, parent span and
   request id, plus [Gc.quick_stat] deltas. Nothing inside [lib/] is
   instrumented. Recording is single-threaded (the traced replays run
   on one thread). *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  root : string;  (** name of the outermost span this one runs under *)
  req : int;
  t0 : float;
  t1 : float;
  minor_words : float;
  major_words : float;
  major_collections : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_spans : (int * string) list ref = ref []
let next_id = ref 0
let current_req = ref (-1)

let reset () =
  recorded := [];
  open_spans := [];
  next_id := 0

let with_req req f =
  let saved = !current_req in
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := saved) f

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, root =
      match !open_spans with
      | (p, _) :: _ -> (p, snd (List.hd (List.rev !open_spans)))
      | [] -> (-1, name)
    in
    open_spans := (id, name) :: !open_spans;
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      let g1 = Gc.quick_stat () in
      open_spans := List.tl !open_spans;
      recorded :=
        {
          id;
          name;
          parent;
          root;
          req = !current_req;
          t0;
          t1;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: !recorded
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

(* [span] that also hands back the call's wall time. *)
let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = span name f in
  (r, Unix.gettimeofday () -. t0)

let spans () = List.rev !recorded
let duration s = s.t1 -. s.t0
let named name = List.filter (fun s -> s.name = name) (spans ())
let durations name = List.map duration (named name)
(* Replayed operations are the root spans named ["op"]; other roots
   are side probes of single layers. *)
let ops () = List.filter (fun s -> s.parent < 0 && s.name = "op") (spans ())

(* A span's self time: its duration minus the part its children cover.
   Children of one span run sequentially, so their durations add up.
   With [skip], spans under a root span of that name do not count. *)
let self_times ?skip () =
  let all = spans () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    all;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if Some s.root <> skip then begin
        let self = duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
        Hashtbl.replace by_name s.name
          (self +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.)
      end)
    all;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let write path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%s,\"parent\":%d,\"root\":%s,\"req\":%d,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f,\"major_words\":%.0f,\"major_collections\":%d}\n"
            (if i = 0 then " " else ",")
            s.id (Util.json_string s.name) s.parent (Util.json_string s.root) s.req s.t0 s.t1 s.minor_words
            s.major_words s.major_collections)
        (spans ());
      output_string oc "]\n")
