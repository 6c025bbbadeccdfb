(* Output checks that do not go through the program's own verification
   path: assignments are re-evaluated against the predicate closures of
   a fresh [Spec.build] (no compiled tables, no v3 decode, no
   [Verify]), and solver outputs are compared with direct in-process
   solves. *)

module Spec = Lll_store.Spec
module Instance = Lll_core.Instance
module Solver = Lll_core.Solver
module Event = Lll_prob.Event
module Metrics = Lll_local.Metrics

(* Ids of the bad events that occur under a total assignment, evaluated
   through each event's predicate closure. *)
let occurring inst (values : int array) =
  if Array.length values <> Instance.num_vars inst then None
  else
    Some
      (Array.fold_right
         (fun e acc -> if Event.pred_holds e (fun v -> values.(v)) then Event.id e :: acc else acc)
         (Instance.events inst) [])

let values_of_assignment (a : Lll_prob.Assignment.t) =
  if Array.for_all Option.is_some a then Some (Array.map Option.get a) else None

(* The reported verdict must agree with the closures: [verified] iff no
   bad event occurs. Returns a reason on disagreement. *)
let verdict_agrees inst ~verified values =
  match occurring inst values with
  | None -> Some "assignment has the wrong number of cells"
  | Some [] when verified -> None
  | Some (_ :: _) when not verified -> None
  | Some [] -> Some "reported not verified, but no bad event occurs"
  | Some (e :: _) -> Printf.sprintf "reported verified, but bad event %d occurs" e |> Option.some

(* A copy of a total assignment with one variable changed so that some
   bad event occurs, or [None] if no single change does that. Only the
   changed event is evaluated, so this stays cheap at n = 10^5. *)
let flip_into_event inst values =
  let sp = Instance.space inst in
  let flip e =
    Array.to_seq (Event.scope e)
    |> Seq.find_map (fun v ->
           Seq.init (Lll_prob.Var.arity (Lll_prob.Space.var sp v)) Fun.id
           |> Seq.find_map (fun x ->
                  if x <> values.(v) && Event.pred_holds e (fun u -> if u = v then x else values.(u)) then
                    Some (v, x)
                  else None))
  in
  Array.to_seq (Instance.events inst)
  |> Seq.find_map flip
  |> Option.map (fun (v, x) ->
         let flipped = Array.copy values in
         flipped.(v) <- x;
         flipped)

(* An engine's assignment against the closures: a partial assignment
   may only come back unverified. *)
let assignment_problem inst ~verified (a : Lll_prob.Assignment.t) =
  match values_of_assignment a with
  | None -> if verified then Some "verified but incomplete assignment" else None
  | Some values -> verdict_agrees inst ~verified values

type direct = {
  d_body : string;  (** the service's CSV rendering of the assignment *)
  d_ok : bool;
  d_verified : bool;
  d_rounds : int option;
  d_guaranteed : bool;
  d_problem : string option;  (** an independent check that failed *)
}

(* Solve [inst] (a fresh build of its spec) in process and check the
   result against the closures. *)
let direct_solve ?(metrics = Metrics.disabled) ~solver ~seed ~domains inst =
  let engine = Solver.find_exn solver in
  let params = { Solver.default_params with Solver.seed; domains; metrics } in
  let report = Solver.solve ~params engine inst in
  let outcome = report.Solver.outcome in
  let verified = report.Solver.verify.Lll_core.Verify.ok in
  let guaranteed = Solver.guarantees engine inst in
  let problem =
    match assignment_problem inst ~verified outcome.Solver.assignment with
    | Some _ as p -> p
    | None -> if guaranteed && not report.Solver.ok then Some "guaranteed engine not ok" else None
  in
  {
    d_body = Util.csv_of_assignment outcome.Solver.assignment;
    d_ok = report.Solver.ok;
    d_verified = verified;
    d_rounds = outcome.Solver.rounds;
    d_guaranteed = guaranteed;
    d_problem = problem;
  }

(* Per-class operation accounting. *)
type tally = { mutable attempted : int; mutable failed : int }

type acct = (string, tally) Hashtbl.t

let acct () : acct = Hashtbl.create 8

let tally (a : acct) cls =
  match Hashtbl.find_opt a cls with
  | Some t -> t
  | None ->
    let t = { attempted = 0; failed = 0 } in
    Hashtbl.add a cls t;
    t

let attempt a cls = (tally a cls).attempted <- (tally a cls).attempted + 1

let reported = ref 0

let fail a cls reason =
  (tally a cls).failed <- (tally a cls).failed + 1;
  if !reported < 20 then Printf.eprintf "FAILED [%s]: %s\n%!" cls reason;
  incr reported

let totals (a : acct) =
  Hashtbl.fold (fun _ t (n, f) -> (n + t.attempted, f + t.failed)) a (0, 0)

let classes (a : acct) =
  List.sort compare (Hashtbl.fold (fun k t acc -> (k, t.attempted, t.failed) :: acc) a [])
