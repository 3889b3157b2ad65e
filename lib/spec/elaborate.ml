(* Elaboration: lower a resolved spec to the engine's core types —
   [Net.custom] plus an [Algo.t] whose route/wait relations are
   precomputed (buffer, destination)-indexed tables.

   The whole-network semantic checks live here because they need those
   tables: wait sets must be subsets of the matched route sets, explicit
   outputs must be adjacent to the packet's head node, and every
   destination must be reachable from every source.  All errors carry the
   position of the offending rule (or of the size declaration for
   whole-spec properties). *)

open Dfr_topology
open Dfr_network
open Dfr_routing

exception Error of Ast.pos * string

let error pos fmt = Printf.ksprintf (fun msg -> raise (Error (pos, msg))) fmt

type channel_info = {
  ch_name : string;
  ch_src : int;
  ch_dst : int;
  ch_vc : int;
  ch_buffer : int;  (* buffer id in the elaborated network *)
}

type t = {
  spec : Validate.t;
  net : Net.t;
  algo : Algo.t;
  channel_infos : channel_info list;  (* declaration order *)
}

let build_net (s : Validate.t) =
  Net.custom ~name:s.Validate.name ~switching:s.Validate.switching
    ~num_nodes:s.Validate.num_nodes
    ~channels:
      (Array.to_list s.Validate.channels
      |> List.map (fun c -> (c.Validate.csrc, c.Validate.cdst, c.Validate.cvc)))

(* buffer id of each declared channel *)
let buffer_ids (s : Validate.t) net =
  Array.map
    (fun (c : Validate.channel) ->
      match s.Validate.switching with
      | Net.Wormhole ->
        Buf.id (Net.find_custom_channel net ~src:c.Validate.csrc ~dst:c.Validate.cdst ~vc:c.Validate.cvc)
      | Net.Store_and_forward | Net.Virtual_cut_through ->
        Buf.id (Net.node_buffer net ~node:c.Validate.cdst ~cls:c.Validate.cvc))
    s.Validate.channels

let sel_matches buf_of_channel b = function
  | Validate.At_all -> true
  | Validate.At n -> Buf.head_node b = n
  | Validate.In ci -> Buf.id b = buf_of_channel.(ci)
  | Validate.Inj n -> ( match Buf.kind b with Buf.Injection m -> m = n | _ -> false)

(* First-match resolution: a rule applies to state (b, dest) when its
   selector matches b and its [to] clause, if any, names dest; the first
   such rule in declaration order wins.  [Indexed] answers each state in
   O(1) from an index built once in O(rules): every rule is filed under
   its selector's target (the one buffer of [in C] or [inj N], the node
   of [at N], one shared slot for [at *]) and its [to] node or "any",
   and each (slot, key) keeps only its earliest rule.  The first match of
   (b, dest) is then the earliest of six entries: b's own slot, its head
   node's slot and the shared slot, each under dest and under "any".
   [Linear] scans every rule per state; it is the reference the
   differential tests compare the index against. *)
type resolution = Indexed | Linear

let resolver resolution net buf_of_channel rules =
  let rules = Array.of_list rules in
  match resolution with
  | Linear ->
    fun b dest ->
      Array.find_opt
        (fun (r : Validate.rule) ->
          sel_matches buf_of_channel b r.Validate.sel
          && match r.Validate.dst with None -> true | Some d -> d = dest)
        rules
  | Indexed ->
    let num_buffers = Net.num_buffers net and num_nodes = Net.num_nodes net in
    (* slots: buffer ids, then one per node, then [at *]; key -1 = any *)
    let node_slot n = num_buffers + n and all_slot = num_buffers + num_nodes in
    let key slot dest = (slot * (num_nodes + 1)) + dest + 1 in
    let first = Hashtbl.create (Array.length rules) in
    Array.iteri
      (fun i (r : Validate.rule) ->
        let slot =
          match r.Validate.sel with
          | Validate.In ci -> buf_of_channel.(ci)
          | Validate.Inj n -> Buf.id (Net.injection net n)
          | Validate.At n -> node_slot n
          | Validate.At_all -> all_slot
        in
        let k = key slot (Option.value r.Validate.dst ~default:(-1)) in
        if not (Hashtbl.mem first k) then Hashtbl.add first k i)
      rules;
    fun b dest ->
      let best = ref max_int in
      let probe slot =
        List.iter
          (fun d ->
            match Hashtbl.find_opt first (key slot d) with
            | Some i when i < !best -> best := i
            | _ -> ())
          [ dest; -1 ]
      in
      probe (Buf.id b);
      probe (node_slot (Buf.head_node b));
      probe all_slot;
      if !best = max_int then None else Some rules.(!best)

let describe_state net b dest =
  Printf.sprintf "%s dest %d" (Net.describe_buffer net (Buf.id b)) dest

(* outputs of a matched rule at a concrete (buffer, dest) state *)
let rule_outputs (s : Validate.t) net buf_of_channel triple_index (r : Validate.rule) b dest =
  let head = Buf.head_node b in
  match r.Validate.outs with
  | Validate.Empty -> []
  | Validate.Explicit outs ->
    List.map
      (fun (ci, opos) ->
        let c = s.Validate.channels.(ci) in
        (match s.Validate.switching with
        | Net.Wormhole when c.Validate.csrc <> head ->
          error opos "channel %S starts at node %d, not at the packet's head node %d (state %s)"
            c.Validate.cname c.Validate.csrc head (describe_state net b dest)
        | _ -> ());
        buf_of_channel.(ci))
      outs
  | Validate.Min vc_filter ->
    let topo =
      match s.Validate.topology with
      | Some t -> t
      | None -> assert false (* ruled out in Validate *)
    in
    List.concat_map
      (fun (dim, dir) ->
        match Topology.neighbor topo head dim dir with
        | None -> []
        | Some v ->
          List.filter_map
            (fun k ->
              match vc_filter with
              | Some f when f <> k -> None
              | _ -> Some (Hashtbl.find triple_index (head, v, k)))
            (List.init s.Validate.vcs Fun.id))
      (Topology.minimal_moves topo ~src:head ~dst:dest)

let run ?(resolution = Indexed) (s : Validate.t) =
  let net = build_net s in
  let buf_of_channel = buffer_ids s net in
  let triple_index = Hashtbl.create 64 in
  Array.iteri
    (fun i (c : Validate.channel) ->
      let key = (c.Validate.csrc, c.Validate.cdst, c.Validate.cvc) in
      if not (Hashtbl.mem triple_index key) then Hashtbl.add triple_index key buf_of_channel.(i))
    s.Validate.channels;
  let num_buffers = Net.num_buffers net in
  let num_nodes = Net.num_nodes net in
  let route_tbl = Array.make_matrix num_buffers num_nodes [] in
  let wait_tbl = Array.make_matrix num_buffers num_nodes [] in
  let first_match kind =
    resolver resolution net buf_of_channel
      (List.filter (fun r -> r.Validate.kind = kind) s.Validate.rules)
  in
  let route_rule = first_match Ast.Route and wait_rule = first_match Ast.Wait in
  Array.iter
    (fun b ->
      if not (Buf.is_delivery b) then
        for dest = 0 to num_nodes - 1 do
          if Buf.head_node b <> dest then begin
            let route =
              match route_rule b dest with
              | Some r -> rule_outputs s net buf_of_channel triple_index r b dest
              | None -> []
            in
            route_tbl.(Buf.id b).(dest) <- route;
            match wait_rule b dest with
            | None -> wait_tbl.(Buf.id b).(dest) <- route
            | Some r ->
              let waits = rule_outputs s net buf_of_channel triple_index r b dest in
              List.iter
                (fun w ->
                  if not (List.mem w route) then
                    error r.Validate.rpos
                      "wait buffer %s is not among the permitted outputs of state %s \
                       (wait sets must be subsets of route sets)"
                      (Net.describe_buffer net w) (describe_state net b dest))
                waits;
              wait_tbl.(Buf.id b).(dest) <- waits
          end
        done)
    (Net.buffers net);
  (* every destination must be reachable from every source: per
     destination, one backward search along the route table from the
     buffers whose head is that destination marks every buffer that can
     deliver there ([delivers.(id) = d]); pairs are listed by destination,
     then source *)
  let unreachable = ref [] in
  let preds = Array.make num_buffers [] in
  let delivers = Array.make num_buffers (-1) in
  let rec drain d = function
    | [] -> ()
    | w :: stack ->
      drain d
        (List.fold_left
           (fun stack p ->
             if delivers.(p) = d then stack
             else begin
               delivers.(p) <- d;
               p :: stack
             end)
           stack preds.(w))
  in
  for d = num_nodes - 1 downto 0 do
    Array.fill preds 0 num_buffers [];
    let heads = ref [] in
    for id = 0 to num_buffers - 1 do
      if Buf.head_node (Net.buffer net id) = d then begin
        delivers.(id) <- d;
        heads := id :: !heads
      end
      else List.iter (fun w -> preds.(w) <- id :: preds.(w)) route_tbl.(id).(d)
    done;
    drain d !heads;
    for src = num_nodes - 1 downto 0 do
      if src <> d && delivers.(Buf.id (Net.injection net src)) <> d then
        unreachable := (src, d) :: !unreachable
    done
  done;
  (match !unreachable with
  | [] -> ()
  | pairs ->
    let show (s', d) = Printf.sprintf "%d -> %d" s' d in
    let shown = List.filteri (fun i _ -> i < 5) pairs in
    error s.Validate.size_pos
      "routing cannot deliver %d source/destination pair%s: %s%s"
      (List.length pairs)
      (if List.length pairs = 1 then "" else "s")
      (String.concat ", " (List.map show shown))
      (if List.length pairs > 5 then ", ..." else ""));
  let algo =
    Algo.make ~name:s.Validate.name ~wait:s.Validate.waiting
      ~route:(fun _ b ~dest -> route_tbl.(Buf.id b).(dest))
      ~waits:(fun _ b ~dest -> wait_tbl.(Buf.id b).(dest))
      ()
  in
  let channel_infos =
    Array.to_list
      (Array.mapi
         (fun i (c : Validate.channel) ->
           {
             ch_name = c.Validate.cname;
             ch_src = c.Validate.csrc;
             ch_dst = c.Validate.cdst;
             ch_vc = c.Validate.cvc;
             ch_buffer = buf_of_channel.(i);
           })
         s.Validate.channels)
  in
  { spec = s; net; algo; channel_infos }

let check ?resolution s =
  try Ok (run ?resolution s) with Error (pos, msg) -> Error (pos, msg)
