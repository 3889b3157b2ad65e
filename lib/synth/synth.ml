(* The synthesis front ends over Clause_search, the conflict-driven
   search shared with the checker.

   BWG' synthesis (mode 1) is Reduction.search itself, behind synth's own
   pre-checks: it probes candidate BWGs with the streaming True-Cycle
   probe, learns a blocking clause from every True Cycle's witness
   entries, tries edge cuts (remove every live entry generating one
   cycle edge) before the clause's single entries, and never removes a
   state's last wait.  With routes fixed the clauses
   are exact, so an exhausted search is an honest Unsat, which is
   Theorem 3's necessity direction.

   Repair (mode 2) drives the same engine over copy assignments, with a
   deliverability-guarded assign (a decremental per-destination Reach
   query) and the shortest-first probe.  Reassignments change occupancy,
   so its clauses can outlive their cycles: exhaustion only says Gave_up,
   and the final candidate is re-verified end to end by the checker. *)

open Dfr_network
open Dfr_routing
open Dfr_core
module Csr = Dfr_graph.Csr
module Digraph = Dfr_graph.Digraph
module Dot = Dfr_graph.Dot
module Reach = Dfr_graph.Reach
module Obs = Dfr_obs.Obs
module Printer = Dfr_spec.Printer

type stats = {
  rebuilds : int;
  decisions : int;
  conflicts : int;
  learned : int;
  pruned : int;
  restored : int;
}

type success = {
  space : State_space.t;
  bwg : Bwg.t;
  algo : Algo.t;
  removed : Reduction.removed list;
  widened : int;
  spec : (string, string) result;
  stats : stats;
}

type outcome =
  | Synthesized of success
  | Already_free of Checker.proof
  | Unsat of string
  | Gave_up of string

let describe_entry net { Reduction.head; dest; target } =
  Printf.sprintf "%s -> %s for dest %d"
    (Net.describe_buffer net head)
    (Net.describe_buffer net target)
    dest

(* the search's counters plus a pass that probes [extra] more times and
   hands back [restored] removals *)
let stats_of (s : Clause_search.stats) ~extra ~restored =
  {
    rebuilds = s.rebuilds + extra;
    decisions = s.decisions;
    conflicts = s.conflicts;
    learned = s.learned;
    pruned = s.pruned;
    restored;
  }

let emit st =
  Obs.count "synth.rebuilds" st.rebuilds;
  Obs.count "synth.decisions" st.decisions;
  Obs.count "synth.conflicts" st.conflicts;
  Obs.count "synth.clauses.learned" st.learned;
  Obs.count "synth.pruned" st.pruned;
  Obs.count "synth.restored" st.restored

let remove session { Reduction.head; dest; target } =
  Bwg.Session.remove session ~buf:head ~dest target

let restore session { Reduction.head; dest; target } =
  Bwg.Session.restore session ~buf:head ~dest target

(* ------------------------------------------------------------------ *)
(* mode 1: BWG' synthesis (waits shrink, routes fixed)                 *)

(* Greedy 1-minimization: restore each removal in ascending order and
   keep the restoration whenever the candidate stays True-Cycle-free.
   Because the True-Cycle property is monotone in the kept entries, one
   pass yields a 1-minimal removed set — exactly the shape {!certify}
   wants (re-admitting any single survivor deadlocks).  Each probe is
   the session's BWG' one restored entry away from the last. *)
let minimize_pass session removed =
  Obs.span "synth.minimize" @@ fun () ->
  List.filter
    (fun r ->
      restore session r;
      let needed =
        match Reduction.true_cycle_status (Bwg.Session.bwg session) with
        | Ok None -> false
        | Ok (Some _) | Error _ -> true
      in
      if needed then remove session r;
      needed)
    removed

let synthesize ?(budget = 4000) ?(domains = 1) ?(minimize = false) space =
  Obs.span "synth.solve" @@ fun () ->
  let net = State_space.net space in
  let algo = State_space.algo space in
  if State_space.stuck_states space <> [] then
    Unsat
      "the routing relation dead-ends in stuck states; no waiting rule can \
       restore lost packets"
  else if State_space.waitless_states space <> [] then
    Unsat
      "not wait-connected: a reachable state already has an empty waiting \
       set under the full rule"
  else if Option.is_some (Deadlock_config.find space) then
    Unsat
      "a deadlocked single-buffer configuration (knot) exists: every \
       wait-connected BWG' keeps a True Cycle"
  else
    let session = Bwg.session (Bwg.build ~domains space) in
    let outcome, s = Reduction.search ~budget session in
    match outcome with
    | Reduction.Gave_up msg ->
      emit (stats_of s ~extra:0 ~restored:0);
      Gave_up msg
    | Reduction.Impossible ->
      emit (stats_of s ~extra:0 ~restored:0);
      Unsat
        "exhaustive search: every wait-connected BWG' has a True Cycle \
         (Theorem 3 necessity)"
    | Reduction.Reduced removed ->
      let found = List.sort compare removed in
      (* the search left [found] removed: the session is the result's *)
      let removed = if minimize then minimize_pass session found else found in
      let algo' =
        Algo.with_waits algo (fun net b ~dest ->
            List.filter
              (Bwg.Session.is_live session ~buf:(Buf.id b) ~dest)
              (algo.Algo.waits net b ~dest))
      in
      let stats =
        stats_of s
          ~extra:(if minimize then List.length found else 0)
          ~restored:(List.length found - List.length removed)
      in
      emit stats;
      Synthesized
        {
          space;
          bwg = Bwg.Session.bwg session;
          algo = algo';
          removed;
          widened = 0;
          spec = Printer.to_string net algo';
          stats;
        }

(* ------------------------------------------------------------------ *)
(* mode 2: restriction repair (routes shrink, from a widened relation)  *)

(* Virtual copies of a physical resource: the virtual channels of one
   directed link share (src, dst); the buffer classes of one SAF/VCT node
   share the node.  Widening a route set admits every copy of each
   resource it already uses — the unused copies are exactly the freedom a
   deadlocking single-VC design needs opened before restriction can
   help. *)
let copy_groups net =
  let groups = Hashtbl.create 64 in
  let key b =
    match Buf.kind b with
    | Buf.Channel { src; dst; _ } -> (0, src, dst)
    | Buf.Node_buffer { node; _ } -> (1, node, node)
    | Buf.Injection _ | Buf.Delivery _ -> assert false
  in
  List.iter
    (fun b ->
      let k = key b in
      let cur = Option.value (Hashtbl.find_opt groups k) ~default:[] in
      Hashtbl.replace groups k (Buf.id b :: cur))
    (Net.transit_buffers net);
  fun id ->
    let b = Net.buffer net id in
    if Buf.is_transit b then List.sort compare (Hashtbl.find groups (key b))
    else [ id ]

(* The direct wait-restriction route does not work here: movement
   follows routes in this model, so once the relation is widened the bad
   occupancy is reachable and the widened design has a knot — no waiting
   rule can save it (synthesize returns Unsat).  Nor does a monotone
   remove-only search over route entries: its blocking clauses are
   heuristic (removals change occupancy) and the clause-pruned region
   blows up exponentially (observed: millions of decisions between two
   BWG rebuilds on dragonfly-minimal-1vc).

   What repairs such designs in practice is re-deciding, per state and
   physical hop, WHICH virtual copy to use — the dateline/layered
   assignments all live in that space.  So the repair search is a
   conflict-driven search over copy assignments: a variable per (state,
   physical-copy group with >= 2 members), values its copies; a probe
   builds the candidate (route = assigned copies, waits = route) and
   asks for a knot or a True Cycle; a conflict's occupants yield the
   value clause "at least one of these states must take a different
   copy", with the cycle's wait-edge literals preferred for branching;
   decided variables are frozen down the subtree, so the tree is finite.
   Exactly-one-copy assignments preserve the input's physical structure,
   and per-destination deliverability from every injection is checked on
   every reassignment (decrementally, via Reach) as a belt-and-braces
   invariant.  Clauses over-approximate (another assignment elsewhere
   might break the cycle's occupancy), so exhaustion is only Gave_up. *)

type fvar = {
  f_head : int;
  f_dest : int;
  f_choices : int array; (* the copy group, ascending *)
  mutable f_value : int; (* index into f_choices *)
}

let repair_search ~budget ~domains net algo =
  let num_nodes = Net.num_nodes net in
  let num_buffers = Net.num_buffers net in
  let group = copy_groups net in
  (* variables in (buffer asc, dest asc, group-min asc) order; fixed
     (singleton-group) targets are not searchable *)
  let vars = ref [] and num_vars = ref 0 in
  let fixed_of = Hashtbl.create 256 in (* (buf, dest) -> targets *)
  let var_ids_of = Hashtbl.create 256 in (* (buf, dest) -> var ids *)
  let lit_of = Hashtbl.create 256 in (* (buf, dest, target) -> (var, idx) *)
  let widened_delta = ref 0 in
  Array.iter
    (fun b ->
      if not (Buf.is_delivery b) then
        for dest = 0 to num_nodes - 1 do
          if Buf.head_node b <> dest then
            match algo.Algo.route net b ~dest with
            | [] -> ()
            | route ->
              let orig = List.sort_uniq compare route in
              let seen_groups = Hashtbl.create 4 in
              let fixed = ref [] and ids = ref [] in
              List.iter
                (fun t ->
                  let g = group t in
                  let gmin = List.hd g in
                  if not (Hashtbl.mem seen_groups gmin) then begin
                    Hashtbl.add seen_groups gmin ();
                    match g with
                    | [ only ] -> fixed := only :: !fixed
                    | _ ->
                      widened_delta :=
                        !widened_delta + List.length g
                        - List.length (List.filter (fun x -> List.mem x orig) g);
                      let choices = Array.of_list g in
                      let value =
                        (* least original member of the group *)
                        let rec first i =
                          if List.mem choices.(i) orig then i else first (i + 1)
                        in
                        first 0
                      in
                      let v =
                        {
                          f_head = Buf.id b;
                          f_dest = dest;
                          f_choices = choices;
                          f_value = value;
                        }
                      in
                      let vi = !num_vars in
                      incr num_vars;
                      vars := v :: !vars;
                      ids := vi :: !ids;
                      Array.iteri
                        (fun i t ->
                          Hashtbl.replace lit_of (Buf.id b, dest, t) (vi, i))
                        choices
                  end)
                orig;
              Hashtbl.replace fixed_of (Buf.id b, dest) (List.rev !fixed);
              Hashtbl.replace var_ids_of (Buf.id b, dest) (List.rev !ids)
        done)
    (Net.buffers net);
  let vars = Array.of_list (List.rev !vars) in
  (* keep sets: during the search each variable contributes exactly its
     assigned copy; the re-admission pass afterwards widens them *)
  let keep = Array.map (fun v -> Array.make (Array.length v.f_choices) false) vars in
  Array.iteri (fun i v -> keep.(i).(v.f_value) <- true) vars;
  let route' netv b ~dest =
    match Hashtbl.find_opt fixed_of (Buf.id b, dest) with
    | None -> algo.Algo.route netv b ~dest
    | Some fixed ->
      let chosen =
        List.concat_map
          (fun vi ->
            let v = vars.(vi) in
            List.filteri (fun i _ -> keep.(vi).(i))
              (Array.to_list v.f_choices))
          (Hashtbl.find var_ids_of (Buf.id b, dest))
      in
      List.sort compare (fixed @ chosen)
  in
  let cand = Algo.with_relation algo route' in
  (* per-destination deliverability over all widened entries; copies not
     currently kept are disabled *)
  let dest_edges = Array.make num_nodes [] in
  let add_edge d h t = dest_edges.(d) <- (h, t) :: dest_edges.(d) in
  Hashtbl.iter
    (fun (b, d) fixed -> List.iter (fun t -> add_edge d b t) fixed)
    fixed_of;
  Array.iter
    (fun v -> Array.iter (fun t -> add_edge v.f_dest v.f_head t) v.f_choices)
    vars;
  let sinks = Array.make num_nodes [] in
  for d = 0 to num_nodes - 1 do
    sinks.(d) <- [ Buf.id (Net.delivery net d) ]
  done;
  List.iter
    (fun b -> sinks.(Buf.head_node b) <- Buf.id b :: sinks.(Buf.head_node b))
    (Net.transit_buffers net);
  let sources = Array.make num_nodes [] in
  Array.iter
    (fun b ->
      match Buf.kind b with
      | Buf.Injection node ->
        for dest = 0 to num_nodes - 1 do
          if dest <> node && algo.Algo.route net b ~dest <> [] then
            sources.(dest) <- Buf.id b :: sources.(dest)
        done
      | _ -> ())
    (Net.buffers net);
  let reach =
    Array.init num_nodes (fun d ->
        Reach.create (Csr.of_edges num_buffers dest_edges.(d)) ~sinks:sinks.(d))
  in
  Array.iter
    (fun v ->
      Array.iteri
        (fun i t ->
          if i <> v.f_value then Reach.disable_edge reach.(v.f_dest) v.f_head t)
        v.f_choices)
    vars;
  (* reassign vi to [value]; false (and no change) when deliverability
     from some injection would break *)
  let assign vi value =
    let v = vars.(vi) in
    if value = v.f_value then true
    else begin
      let r = reach.(v.f_dest) in
      Reach.enable_edge r v.f_head v.f_choices.(value);
      Reach.disable_edge r v.f_head v.f_choices.(v.f_value);
      if Reach.reaches_all r ~sources:sources.(v.f_dest) then begin
        keep.(vi).(v.f_value) <- false;
        keep.(vi).(value) <- true;
        v.f_value <- value;
        true
      end
      else begin
        Reach.enable_edge r v.f_head v.f_choices.(v.f_value);
        Reach.disable_edge r v.f_head v.f_choices.(value);
        false
      end
    end
  in
  let probe () =
    Obs.span "synth.attempt" @@ fun () ->
    match State_space.build net cand with
    | exception Invalid_argument msg ->
      Error ("internal: candidate relation rejected: " ^ msg)
    | space' -> (
      match Deadlock_config.find space' with
      | Some config -> Ok (Some (`Knot config))
      | None -> (
        let bwg = Bwg.build ~domains space' in
        match Reduction.true_cycle_status ~shortest_first:true bwg with
        | Error _ as e -> e
        | Ok None -> Ok None
        | Ok (Some (_cycle, packets)) -> Ok (Some (`Cycle packets))))
  in
  let lit (h, d, t) =
    match Hashtbl.find_opt lit_of (h, d, t) with
    | Some (var, value) -> Some { Clause_search.var; value }
    | None -> None (* a fixed, singleton-group entry: not searchable *)
  in
  (* a conflict's value clause; literals on fixed entries drop out *)
  let clause_of_conflict = function
    | `Knot config ->
      let lits =
        List.concat_map
          (fun (buf, dest) ->
            List.filter_map (fun t -> lit (buf, dest, t))
              (route' net (Net.buffer net buf) ~dest))
          config
      in
      (lits, lits)
    | `Cycle packets ->
      let wait_edges =
        List.filter_map
          (fun (p : Cycle_class.packet) ->
            match List.rev p.Cycle_class.path with
            | [] -> None
            | head :: _ ->
              lit (head, p.Cycle_class.dest, p.Cycle_class.waits_for))
          packets
      in
      let path_lits =
        List.concat_map
          (fun (p : Cycle_class.packet) ->
            let d = p.Cycle_class.dest in
            let rec along acc = function
              | [] | [ _ ] -> acc
              | a :: (b :: _ as rest) -> (
                match lit (a, d, b) with
                | Some l -> along (l :: acc) rest
                | None -> along acc rest)
            in
            along [] p.Cycle_class.path)
          packets
      in
      (wait_edges @ path_lits, wait_edges)
  in
  let outcome, searched =
    Clause_search.run ~budget
      ~arity:(fun vi -> Array.length vars.(vi).f_choices)
      (Array.map (fun v -> v.f_value) vars)
      {
        probe;
        clause = clause_of_conflict;
        moves = (fun _ -> Seq.empty);
        assign;
      }
  in
  let probes = ref 0 and restored = ref 0 in
  let stats () = stats_of searched ~extra:!probes ~restored:!restored in
  (* greedy re-admission: restore each removed copy, ascending, and keep
     the restoration whenever the candidate stays free — the removal set
     becomes 1-minimal and the repaired design keeps what adaptivity it
     can.  Shares the probe budget; stops quietly when it runs out. *)
  let readmit () =
    Obs.span "synth.minimize" @@ fun () ->
    Array.iteri
      (fun vi v ->
        Array.iteri
          (fun i _ ->
            if (not keep.(vi).(i)) && searched.rebuilds + !probes < budget then begin
              keep.(vi).(i) <- true;
              incr probes;
              match probe () with
              | Ok None -> incr restored
              | Ok (Some _) | Error _ -> keep.(vi).(i) <- false
            end)
          v.f_choices)
      vars
  in
  let removed_entries () =
    let acc = ref [] in
    Array.iteri
      (fun vi v ->
        Array.iteri
          (fun i t ->
            if not keep.(vi).(i) then
              acc := { Reduction.head = v.f_head; dest = v.f_dest; target = t } :: !acc)
          v.f_choices)
      vars;
    List.sort compare !acc
  in
  match outcome with
  | Clause_search.Gave_up msg ->
    emit (stats ());
    Gave_up msg
  | Clause_search.Exhausted ->
    emit (stats ());
    Gave_up
      "search exhausted without a repair (value clauses are heuristic — \
       reassignments change occupancy — so this is no unsatisfiability \
       claim)"
  | Clause_search.Found -> (
    readmit ();
    let final = Algo.with_relation algo route' ~name:(algo.Algo.name ^ "+repair") in
    (* independent end-to-end verification through the checker *)
    let report = Checker.check ~domains net final in
    match report.Checker.verdict with
    | Checker.Deadlock_free _ ->
      let spec = Printer.to_string net final in
      let stats = stats () in
      emit stats;
      Synthesized
        {
          space = report.Checker.space;
          bwg = report.Checker.bwg;
          algo = final;
          removed = removed_entries ();
          widened = !widened_delta;
          spec;
          stats;
        }
    | Checker.Deadlock_possible _ ->
      emit (stats ());
      Gave_up
        "internal: the repaired candidate failed end-to-end re-verification"
    | Checker.Unknown reason ->
      emit (stats ());
      Gave_up ("repaired candidate could not be re-verified: " ^ reason))

let repair ?(budget = 4000) ?(domains = 1) net algo =
  Obs.span "synth.solve" @@ fun () ->
  match Checker.verdict ~domains net algo with
  | Checker.Deadlock_free proof -> Already_free proof
  | Checker.Unknown reason -> Gave_up ("baseline check inconclusive: " ^ reason)
  | Checker.Deadlock_possible (Checker.Stuck_states _) ->
    Gave_up
      "the input relation has stuck states; repair removes entries and \
       cannot restore lost packets"
  | Checker.Deadlock_possible _ ->
    repair_search ~budget ~domains net algo

(* ------------------------------------------------------------------ *)
(* mode 3: Theorem-6-style maximality certification                     *)

type cert_item = {
  relaxed : Reduction.removed;
  cycle : int list;
  packets : Cycle_class.packet list;
}

type certification =
  | Maximal of cert_item list
  | Relaxable of Reduction.removed list
  | Cert_unknown of string

(* On the result's own session: each certificate restores its entry,
   probes, and takes it out again; a last read hands [s.bwg] back at the
   BWG'. *)
let certify s =
  Obs.span "synth.certify" @@ fun () ->
  let session = Bwg.session s.bwg in
  let rec go items relaxable = function
    | [] ->
      if relaxable = [] then Maximal (List.rev items)
      else Relaxable (List.rev relaxable)
    | r :: rest -> (
      restore session r;
      let status =
        Reduction.true_cycle_status ~shortest_first:true (Bwg.Session.bwg session)
      in
      remove session r;
      match status with
      | Error reason -> Cert_unknown reason
      | Ok None -> go items (r :: relaxable) rest
      | Ok (Some (cycle, packets)) ->
        go ({ relaxed = r; cycle; packets } :: items) relaxable rest)
  in
  let result = go [] [] s.removed in
  ignore (Bwg.Session.bwg session : Bwg.t);
  result

let replay space ~removed items =
  let session = Bwg.session (Bwg.build space) in
  List.iter (remove session) removed;
  List.map
    (fun item ->
      restore session item.relaxed;
      let bwg = Bwg.Session.bwg session in
      let g = Bwg.graph bwg in
      let edges_ok =
        match item.cycle with
        | [] -> false
        | first :: _ ->
          let rec chk = function
            | [] -> false
            | [ last ] -> Digraph.mem_edge g last first
            | a :: (b :: _ as rest) -> Digraph.mem_edge g a b && chk rest
          in
          chk item.cycle
      in
      let ok =
        edges_ok
        &&
        match Cycle_class.classify bwg item.cycle with
        | Cycle_class.True_cycle _ -> true
        | Cycle_class.False_resource_cycle _ -> false
      in
      remove session item.relaxed;
      ok)
    items

(* ------------------------------------------------------------------ *)
(* DOT overlay: BWG with the synthesized BWG' edges highlighted         *)

let bwg_prime_dot s =
  let net = State_space.net s.space in
  let fg = Bwg.graph (Bwg.build s.space) in
  let rg = Bwg.graph s.bwg in
  let touched = Array.make (Digraph.num_vertices fg) false in
  Digraph.iter_edges
    (fun u v ->
      touched.(u) <- true;
      touched.(v) <- true)
    fg;
  Dot.to_string ~name:"bwg_prime"
    ~vertex_label:(fun v -> Net.describe_buffer net v)
    ~vertex_attrs:(fun v -> if touched.(v) then [] else [ ("style", "invis") ])
    ~edge_attrs:(fun u v ->
      if Digraph.mem_edge rg u v then [ ("color", "#1f78b4"); ("penwidth", "1.6") ]
      else [ ("color", "#9e9e9e"); ("style", "dashed") ])
    fg
