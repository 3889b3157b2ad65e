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
open Table
module Count_table = Dfr_util.Count_table

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

let build_net s =
  Net.custom ~name:(Validate.name s) ~switching:(Validate.switching s)
    ~num_nodes:(Validate.num_nodes s)
    ~channels:
      (Array.to_list (Validate.channels s)
      |> List.map (fun (c : Validate.channel) -> (c.Validate.csrc, c.Validate.cdst, c.Validate.cvc)))

(* buffer id of each declared channel *)
let buffer_ids s net =
  Array.map
    (fun (c : Validate.channel) ->
      match Validate.switching s with
      | Net.Wormhole ->
        Buf.id
          (Net.find_custom_channel net ~src:c.Validate.csrc ~dst:c.Validate.cdst ~vc:c.Validate.cvc)
      | Net.Store_and_forward | Net.Virtual_cut_through ->
        Buf.id (Net.node_buffer net ~node:c.Validate.cdst ~cls:c.Validate.cvc))
    (Validate.channels s)

(* First-match resolution: a rule applies to state (b, dest) when its
   selector matches b and its [to] clause, if any, names dest; the first
   such rule of the kind in declaration order wins.  [Indexed] answers
   each state from an index built once in O(rules): every rule is filed
   under an int key made of its kind, its selector's target (the one
   buffer of [in C] or [inj N], the node of [at N], one shared slot for
   [at *]) and its [to] node or "any", and each key keeps only its
   earliest rule.  The first match of (b, dest) is then the earliest of
   six entries: b's own slot, its head node's slot and the shared slot,
   each under dest and under "any".  The "any" entries are looked up once
   per buffer, and a slot no rule names under a destination is not
   probed.  [Linear] scans every rule per state; it is the reference the
   differential tests compare the index against. *)
type resolution = Indexed | Linear

let sel_matches tb buf_of_channel b r =
  let sel = sel tb r and arg = rule tb r r_sel_arg in
  if sel = sel_all then true
  else if sel = sel_at then Buf.head_node b = arg
  else if sel = sel_in then Buf.id b = buf_of_channel.(arg)
  else match Buf.kind b with Buf.Injection m -> m = arg | _ -> false

(* [resolver ... kind b dest]: the index of the rule of [kind] that
   decides state (b, dest), or -1 *)
let resolver resolution tb net buf_of_channel =
  match resolution with
  | Linear ->
    fun kind b dest ->
      let rec scan r =
        if r = tb.num_rules then -1
        else if
          Table.kind tb r = kind
          && sel_matches tb buf_of_channel b r
          && (let d = rule tb r r_dst in
              d < 0 || d = dest)
        then r
        else scan (r + 1)
      in
      scan 0
  | Indexed ->
    let num_buffers = Net.num_buffers net and num_nodes = Net.num_nodes net in
    (* slots: buffer ids, then one per node, then [at *]; dest -1 = any *)
    let node_slot n = num_buffers + n and all_slot = num_buffers + num_nodes in
    let key kind slot dest = (((slot * (num_nodes + 1)) + dest + 1) * 2) + kind in
    let first = Count_table.create (max 1 tb.num_rules) in
    (* [named.(2 * slot + kind)]: some rule of [kind] at [slot] names a
       destination *)
    let named = Bytes.make (2 * (all_slot + 1)) '\000' in
    for r = 0 to tb.num_rules - 1 do
      let arg = rule tb r r_sel_arg and sel = sel tb r and kind = Table.kind tb r in
      let slot =
        if sel = sel_in then buf_of_channel.(arg)
        else if sel = sel_inj then Buf.id (Net.injection net arg)
        else if sel = sel_at then node_slot arg
        else all_slot
      in
      let dest = rule tb r r_dst in
      let k = key kind slot dest in
      if Count_table.find first k = Count_table.absent then ignore (Count_table.add first k r);
      if dest >= 0 then Bytes.set named ((2 * slot) + kind) '\001'
    done;
    let lookup kind slot dest best =
      let r = Count_table.find first (key kind slot dest) in
      if r <> Count_table.absent && r < best then r else best
    in
    let probe kind slot dest best =
      if Bytes.get named ((2 * slot) + kind) = '\000' then best else lookup kind slot dest best
    in
    (* the "any" entries of the last buffer asked about, per kind *)
    let any_buf = [| -1; -1 |] and any_best = [| max_int; max_int |] in
    fun kind b dest ->
      let id = Buf.id b and node = node_slot (Buf.head_node b) in
      if any_buf.(kind) <> id then begin
        any_buf.(kind) <- id;
        any_best.(kind) <-
          lookup kind id (-1) (lookup kind node (-1) (lookup kind all_slot (-1) max_int))
      end;
      let best =
        probe kind id dest (probe kind node dest (probe kind all_slot dest any_best.(kind)))
      in
      if best = max_int then -1 else best

let describe_state net b dest =
  Printf.sprintf "%s dest %d" (Net.describe_buffer net (Buf.id b)) dest

(* outputs of rule [r] at the concrete (buffer, dest) state *)
let rule_outputs s net buf_of_channel triple_index r b dest =
  let tb = Validate.table s in
  let head = Buf.head_node b in
  let outs = outs tb r in
  if outs = outs_none then []
  else if outs = outs_list then begin
    let first = rule tb r r_outs_arg and len = rule tb r r_outs_len in
    let channels = Validate.channels s in
    if Validate.switching s = Net.Wormhole then
      for o = first to first + len - 1 do
        let c = channels.(tb.outs.(o)) in
        if c.Validate.csrc <> head then
          Lexer.error (out_off tb r (o - first))
            "channel %S starts at node %d, not at the packet's head node %d (state %s)"
            c.Validate.cname c.Validate.csrc head (describe_state net b dest)
      done;
    let rec collect o acc =
      if o < first then acc else collect (o - 1) (buf_of_channel.(tb.outs.(o)) :: acc)
    in
    collect (first + len - 1) []
  end
  else begin
    let topo = Option.get (Validate.topology s) (* ruled out in Validate *) in
    let vcs = Validate.vcs s and vc_filter = rule tb r r_outs_arg in
    let n = Validate.num_nodes s in
    List.concat_map
      (fun (dim, dir) ->
        match Topology.neighbor topo head dim dir with
        | None -> []
        | Some v ->
          List.filter_map
            (fun k ->
              if vc_filter >= 0 && vc_filter <> k then None
              else Some (Count_table.find triple_index ((((head * n) + v) * vcs) + k)))
            (List.init vcs Fun.id))
      (Topology.minimal_moves topo ~src:head ~dst:dest)
  end

let run ?(resolution = Indexed) s =
  let tb = Validate.table s in
  let net = build_net s in
  let buf_of_channel = buffer_ids s net in
  let num_buffers = Net.num_buffers net in
  let num_nodes = Net.num_nodes net in
  (* [minimal]'s outputs by (src, dst, vc), topology channels first *)
  let triple_index =
    let vcs = Validate.vcs s in
    let tbl = Count_table.create (if Validate.topology s = None then 1 else num_buffers) in
    if Validate.topology s <> None then
      Array.iteri
        (fun i (c : Validate.channel) ->
          if c.Validate.cvc < vcs then begin
            let key = (((c.Validate.csrc * num_nodes) + c.Validate.cdst) * vcs) + c.Validate.cvc in
            if Count_table.find tbl key = Count_table.absent then
              ignore (Count_table.add tbl key buf_of_channel.(i))
          end)
        (Validate.channels s);
    tbl
  in
  let route_tbl = Array.make_matrix num_buffers num_nodes [] in
  let wait_tbl = Array.make_matrix num_buffers num_nodes [] in
  let first_match = resolver resolution tb net buf_of_channel in
  Array.iter
    (fun b ->
      if not (Buf.is_delivery b) then
        for dest = 0 to num_nodes - 1 do
          if Buf.head_node b <> dest then begin
            let route =
              match first_match Table.route b dest with
              | -1 -> []
              | r -> rule_outputs s net buf_of_channel triple_index r b dest
            in
            route_tbl.(Buf.id b).(dest) <- route;
            match first_match Table.wait b dest with
            | -1 -> wait_tbl.(Buf.id b).(dest) <- route
            | r ->
              let waits = rule_outputs s net buf_of_channel triple_index r b dest in
              List.iter
                (fun w ->
                  if not (List.mem w route) then
                    Lexer.error (rule tb r r_off)
                      "wait buffer %s is not among the permitted outputs of state %s (wait sets \
                       must be subsets of route sets)"
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
    Lexer.error (Validate.size_pos s) "routing cannot deliver %d source/destination pair%s: %s%s"
      (List.length pairs)
      (if List.length pairs = 1 then "" else "s")
      (String.concat ", " (List.map show shown))
      (if List.length pairs > 5 then ", ..." else ""));
  let algo =
    Algo.make ~name:(Validate.name s) ~wait:(Validate.waiting s)
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
         (Validate.channels s))
  in
  { spec = s; net; algo; channel_infos }

let check ?resolution s = try Ok (run ?resolution s) with Lexer.Error (pos, msg) -> Error (pos, msg)
