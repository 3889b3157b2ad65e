open Dfr_network
open Dfr_routing
module Obs = Dfr_obs.Obs

type proof =
  | Acyclic_bwg
  | No_true_cycles of { cycles_examined : int }
  | Reduced_bwg of { via_hint : bool; removed : Reduction.removed list }

type failure =
  | Stuck_states of (int * int) list
  | Not_wait_connected of (int * int) list
  | Knot of Deadlock_config.t
  | True_cycle of { cycle : int list; packets : Cycle_class.packet list }
  | No_reduction of { cycle : int list; packets : Cycle_class.packet list }

type verdict =
  | Deadlock_free of proof
  | Deadlock_possible of failure
  | Unknown of string

type report = {
  verdict : verdict;
  space : State_space.t;
  bwg : Bwg.t;
  bwg_cycles : int option;
}

(* The verdict pipeline downstream of the BWG build, factored out so the
   incremental re-checker (Incr) can run it on its session's live BWG: the
   stuck / wait-connectivity prefixes are passed in because Incr maintains
   them per destination, and everything after — acyclicity, knot, cycle
   enumeration, classification, reduction — is exactly [check]'s code, which
   is what makes incremental verdicts bit-for-bit identical to cold ones.
   Nothing here reads the order of an adjacency row, which a live BWG's
   may not share with a cold build's (DESIGN.md §9).  The first three
   verdicts return before the knot, cycle-scan and classify stages; Incr
   calls them its fast path.  The acyclicity test is the
   [checker.acyclic] stage, zero-duration when a stuck or unconnected
   state decides first.  [unconnected] is only consulted when
   [stuck] is empty, so callers that already have stuck states may pass
   [[]] for it. *)
let decide ?cycle_limits ?(domains = 1) ~stuck ~unconnected space bwg =
  let algo = State_space.algo space in
  let n_cycles = ref None in
  let ran_acyclic = ref false and ran_knot = ref false in
  let ran_scan = ref false and ran_classify = ref false in
  let stage ran name f =
    ran := true;
    Obs.span name f
  in
  let finish verdict =
    (* every trace carries the full pipeline: stages an early verdict made
       unnecessary appear as zero-duration spans *)
    if not !ran_acyclic then Obs.span "checker.acyclic" (fun () -> ());
    if not !ran_knot then Obs.span "checker.knot" (fun () -> ());
    if not !ran_scan then Obs.span "checker.cycle-scan" (fun () -> ());
    if not !ran_classify then Obs.span "checker.classify" (fun () -> ());
    { verdict; space; bwg; bwg_cycles = !n_cycles }
  in
  match stuck with
  | _ :: _ -> finish (Deadlock_possible (Stuck_states stuck))
  | [] -> (
    match unconnected with
    | _ :: _ as states -> finish (Deadlock_possible (Not_wait_connected states))
    | [] ->
      if stage ran_acyclic "checker.acyclic" (fun () -> Bwg.is_acyclic bwg) then
        finish (Deadlock_free Acyclic_bwg)
      else (
        (* Cheap polynomial knot test: a set of mutually blocking
           single-buffer packets survives in every BWG', so it is a
           deadlock under either waiting discipline (Theorems 2-3,
           necessity). *)
        match stage ran_knot "checker.knot" (fun () -> Deadlock_config.find space)
        with
        | Some config -> finish (Deadlock_possible (Knot config))
        | None -> (
          ran_scan := true;
          ran_classify := true;
          (* Theorem 2's witness is the shortest True Cycle, so a
             specific-wait scan stores every cycle and sorts them; by
             Theorem 3 the full BWG's cycles are no part of a multi-wait
             answer, so its scan streams and stops at the first True
             one, with no count of them *)
          let { Cycle_class.enumerated; cycles_exhaustive; scan } =
            match algo.Algo.wait with
            | Algo.Specific_wait ->
              Cycle_class.shortest_first_scan ?cycle_limits ~domains ~obs:"checker" bwg
            | Algo.Any_wait -> Cycle_class.streaming_scan ?cycle_limits ~obs:"checker" bwg
          in
          if algo.Algo.wait = Algo.Specific_wait || Option.is_none scan.Cycle_class.found
          then n_cycles := Some enumerated;
          match scan.Cycle_class.found with
          | Some (cycle, packets) -> (
            match algo.Algo.wait with
            | Algo.Specific_wait ->
              (* Theorem 2 necessity: the witness is a deadlock. *)
              finish (Deadlock_possible (True_cycle { cycle; packets }))
            | Algo.Any_wait -> (
              (* Theorem 3 on [bwg]'s own session, narrowed by removals:
                 it gets back [Reduced]'s removals and is read, so the
                 report's BWG is the full BWG again *)
              let session = Bwg.session bwg in
              let handed_back removed verdict =
                List.iter
                  (fun { Reduction.head; dest; target } ->
                    Bwg.Session.restore session ~buf:head ~dest target)
                  removed;
                ignore (Bwg.Session.bwg session : Bwg.t);
                finish verdict
              in
              let reduced via_hint removed =
                handed_back removed (Deadlock_free (Reduced_bwg { via_hint; removed }))
              in
              match Reduction.verify_hint ?cycle_limits session with
              | Some (Reduction.Reduced removed) -> reduced true removed
              | _ -> (
                match fst (Reduction.search ?cycle_limits session) with
                | Reduction.Reduced removed -> reduced false removed
                | Reduction.Impossible ->
                  (* exact: the search refuted every wait-connected BWG' *)
                  handed_back [] (Deadlock_possible (No_reduction { cycle; packets }))
                | Reduction.Gave_up reason -> handed_back [] (Unknown reason))))
          | None -> (
            match
              Cycle_class.inconclusive ~cycles_exhaustive
                ~uncertain:scan.Cycle_class.uncertain
            with
            | Some reason -> finish (Unknown reason)
            | None ->
              (* Theorems 2 and 3 sufficiency with BWG' = BWG: only False
                 Resource Cycles remain. *)
              finish
                (Deadlock_free
                   (No_true_cycles { cycles_examined = scan.Cycle_class.classified }))))))

let check ?cycle_limits ?(domains = 1) net algo =
  Obs.span "checker.check" @@ fun () ->
  let space = State_space.build ~domains net algo in
  let bwg = Bwg.build ~domains space in
  let stuck = State_space.stuck_states space in
  let unconnected =
    if stuck = [] then Bwg.unconnected_states bwg else []
  in
  decide ?cycle_limits ~domains ~stuck ~unconnected space bwg

let verdict ?cycle_limits ?domains net algo =
  (check ?cycle_limits ?domains net algo).verdict

(* Serving entry point: a long-lived process checking untrusted inputs
   cannot afford [check]'s process-per-check error model, where a
   malformed algorithm (validation failure, a route function that
   raises) takes the whole process down.  Everything [check] touches is
   allocated per call — state space, BWG, worker domains — so calls are
   independent and may run concurrently from any number of domains; this
   wrapper only has to turn the two documented failure exceptions into
   data.  Asynchronous exceptions (Out_of_memory, Stack_overflow) are
   deliberately not caught: a worker cannot know how much of the heap
   they poisoned. *)
let check_result ?cycle_limits ?domains net algo =
  match check ?cycle_limits ?domains net algo with
  | report -> Ok report
  | exception Invalid_argument msg -> Error msg
  | exception Failure msg -> Error msg

let is_deadlock_free = function
  | Deadlock_free _ -> Some true
  | Deadlock_possible _ -> Some false
  | Unknown _ -> None

let pp_states net fmt states =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    (fun fmt (b, d) -> Format.fprintf fmt "%s->n%d" (Net.describe_buffer net b) d)
    fmt states

let pp_cycle net fmt cycle =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " -> ")
    (fun fmt b -> Format.pp_print_string fmt (Net.describe_buffer net b))
    fmt cycle

let pp_verdict net fmt = function
  | Deadlock_free Acyclic_bwg ->
    Format.fprintf fmt "deadlock-free (Theorem 1: wait-connected, acyclic BWG)"
  | Deadlock_free (No_true_cycles { cycles_examined }) ->
    Format.fprintf fmt
      "deadlock-free (Theorem 2/3: %d BWG cycle(s), all False Resource Cycles)"
      cycles_examined
  | Deadlock_free (Reduced_bwg { via_hint; removed }) ->
    Format.fprintf fmt
      "deadlock-free (Theorem 3: BWG' %s, %d wait entr%s removed)"
      (if via_hint then "verified from hint" else "found by search")
      (List.length removed)
      (if List.length removed = 1 then "y" else "ies")
  | Deadlock_possible (Stuck_states states) ->
    Format.fprintf fmt "broken: states with no permitted output: %a" (pp_states net)
      states
  | Deadlock_possible (Not_wait_connected states) ->
    Format.fprintf fmt "deadlock: not wait-connected at %a" (pp_states net) states
  | Deadlock_possible (Knot config) ->
    Format.fprintf fmt
      "deadlock: %d mutually blocking packets (knot configuration)"
      (List.length config)
  | Deadlock_possible (True_cycle { cycle; packets }) ->
    Format.fprintf fmt "@[<v>deadlock: True Cycle %a@,%a@]" (pp_cycle net) cycle
      (Format.pp_print_list (Cycle_class.pp_packet net))
      packets
  | Deadlock_possible (No_reduction { cycle; packets }) ->
    Format.fprintf fmt
      "@[<v>deadlock: no wait-connected BWG' exists; e.g. True Cycle %a@,%a@]"
      (pp_cycle net) cycle
      (Format.pp_print_list (Cycle_class.pp_packet net))
      packets
  | Unknown reason -> Format.fprintf fmt "unknown (%s)" reason
