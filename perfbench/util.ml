(* Clocks, order statistics, process and file helpers shared by the
   workloads. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (the "type 7" estimator). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A p90 is a tail only when at least ten samples lie beyond it. *)
let p90 xs = if List.length xs >= 100 then Some (quantile 0.9 xs) else None

(* ---- seeded choices ---- *)

let rng seed tag = Random.State.make [| seed; tag |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- files ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set ([VmHWM]) of a process, in MiB. *)
let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
           | _ -> None)
    |> Option.value ~default:nan
  | exception Sys_error _ -> nan

(* Steal and total CPU ticks of the whole machine, from the first line
   of /proc/stat: time the hypervisor gave this guest's virtual CPUs to
   someone else shows as steal. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" input_line with
  | line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let ticks = List.filter_map int_of_string_opt fields in
      let steal = match List.nth_opt ticks 7 with Some s -> s | None -> 0 in
      Some (steal, List.fold_left ( + ) 0 ticks)
    | _ -> None)
  | exception Sys_error _ -> None

(* Share of the machine's CPU time stolen between two [cpu_ticks]
   readings, in percent. *)
let steal_pct before after =
  match (before, after) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)
  | _ -> nan

(* ---- assignment transport: the service's CSV of values ---- *)

let csv_of_assignment (a : Lll_prob.Assignment.t) =
  String.concat "," (Array.to_list (Array.map (function Some v -> string_of_int v | None -> "") a))

(* [None] on an empty or non-integer cell: a served answer must be total. *)
let values_of_csv s =
  let cells = if s = "" then [||] else Array.of_list (String.split_on_char ',' s) in
  let ok = ref true in
  let a = Array.map (fun c -> match int_of_string_opt c with Some v -> v | None -> ok := false; 0) cells in
  if !ok then Some a else None

(* ---- the result line ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* Run [f] and log its wall time to stderr: where a run's time goes. *)
let phase name f =
  let r, dt = time f in
  Printf.eprintf "# phase %-12s %8.3f s\n%!" name dt;
  r
