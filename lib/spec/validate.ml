(* Validation: from a parsed table to a resolved spec, or the first error
   with its source position.

   Everything that can be checked without building the network happens
   here: declaration well-formedness, the topology shorthand, channel
   table construction (including the channels a topology clause
   generates), name resolution and range checks.  Rule rows are resolved
   in place: a [in C] selector and each explicit output change from a
   name id to a channel index, through one name-id-indexed array.
   Whole-network semantic checks (wait ⊆ route, adjacency, destination
   reachability) live in {!Elaborate}, which owns the routing tables. *)

open Dfr_topology
open Dfr_network
open Dfr_routing
open Table

type channel = { cname : string; csrc : int; cdst : int; cvc : int; cpos : int }

type t = {
  name : string;
  switching : Net.switching;
  waiting : Algo.wait_discipline;
  num_nodes : int;
  topology : Topology.t option;
  vcs : int;
  channels : channel array;  (* declaration order = buffer creation order *)
  table : Table.t;
  size_pos : int;  (* the nodes/topology clause, anchor for global errors *)
}

let name t = t.name
let switching t = t.switching
let waiting t = t.waiting
let num_nodes t = t.num_nodes
let topology t = t.topology
let vcs t = t.vcs
let channels t = t.channels
let size_pos t = t.size_pos
let table t = t.table

let generated_channel_name ~src ~dst ~vc = Printf.sprintf "c%d_%d_%d" src dst vc

(* `mesh 4 4' / `hypercube 3' -> the canonical CLI shorthand `mesh:4x4' /
   `hypercube:3'; single-word clauses pass through untouched. *)
let canonical_topology raw =
  match
    String.split_on_char ' ' raw
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  with
  | [] -> raw
  | [ w ] -> w
  | kind :: dims -> kind ^ ":" ^ String.concat "x" dims

let run (tb : Table.t) =
  let at off =
    let line, col = Lexer.line_col tb.src off in
    Printf.sprintf "%d:%d" line col
  in
  if tb.dup >= 0 then
    Lexer.error tb.dup "duplicate %s declaration (first at %s)" Lexer.keywords.(tb.dup_kw)
      (at tb.head_off.(tb.dup_kw));
  let declared kw = tb.head_off.(kw) >= 0 in
  let switching =
    let m = tb.head_val.(Lexer.kw_switching) in
    if not (declared Lexer.kw_switching) || m = Lexer.kw_wormhole then Net.Wormhole
    else if m = Lexer.kw_saf || m = Lexer.kw_store_and_forward then Net.Store_and_forward
    else Net.Virtual_cut_through
  in
  let waiting =
    if declared Lexer.kw_waiting && tb.head_val.(Lexer.kw_waiting) = Lexer.kw_specific then Algo.Specific_wait
    else Algo.Any_wait
  in
  (* network size: exactly one of `nodes' and `topology' *)
  let npos = tb.head_off.(Lexer.kw_nodes) and tpos = tb.head_off.(Lexer.kw_topology) in
  let num_nodes, topology, size_pos =
    match (npos >= 0, tpos >= 0) with
    | true, true ->
      Lexer.error (max npos tpos)
        "'nodes' and 'topology' cannot both be declared; a topology fixes the node count"
    | true, false ->
      let n = tb.head_val.(Lexer.kw_nodes) in
      if n < 1 then Lexer.error npos "nodes must be >= 1, got %d" n;
      (n, None, npos)
    | false, true -> (
      match Topology.of_string (canonical_topology tb.topology) with
      | Ok t -> (Topology.num_nodes t, Some t, tpos)
      | Error msg -> Lexer.error tpos "bad topology shorthand: %s" msg)
    | false, false ->
      if tb.first_decl < 0 then
        Lexer.error 0 "empty specification: declare 'nodes N' or 'topology ...'"
      else Lexer.error tb.first_decl "missing 'nodes N' or 'topology ...' declaration"
  in
  let vcs =
    let pos = tb.head_off.(Lexer.kw_vcs) in
    match topology with
    | _ when pos < 0 -> 1
    | None ->
      Lexer.error pos "'vcs' only applies to topology specs; explicit channels carry their own 'vc N'"
    | Some _ ->
      let n = tb.head_val.(Lexer.kw_vcs) in
      if n < 1 then Lexer.error pos "vcs must be >= 1, got %d" n;
      n
  in
  (match (topology, switching) with
  | Some _, (Net.Store_and_forward | Net.Virtual_cut_through) ->
    Lexer.error size_pos
      "topology shorthands are wormhole-only; declare saf/vct networks with explicit channels"
  | _ -> ());
  (* channel table: topology-generated channels first, then explicit ones;
     a generated channel's name is interned so rules can resolve it *)
  let generated =
    match topology with
    | None -> []
    | Some t ->
      List.concat_map
        (fun (u, v) ->
          List.init vcs (fun k ->
              let cname = generated_channel_name ~src:u ~dst:v ~vc:k in
              ( Lexer.intern tb.names cname 0 (String.length cname),
                { cname; csrc = u; cdst = v; cvc = k; cpos = size_pos } )))
        (Topology.channels t)
  in
  let explicit =
    List.init tb.num_chans (fun c ->
        let id = chan tb c c_name and src = chan tb c c_src and dst = chan tb c c_dst in
        let pos = chan tb c c_off in
        let cname = spelling tb id in
        if src >= num_nodes then
          Lexer.error pos "channel %S: source node %d out of range 0..%d" cname src (num_nodes - 1);
        if dst >= num_nodes then
          Lexer.error pos "channel %S: destination node %d out of range 0..%d" cname dst
            (num_nodes - 1);
        (id, { cname; csrc = src; cdst = dst; cvc = chan tb c c_vc; cpos = chan tb c c_name_off }))
  in
  let named = Array.of_list (generated @ explicit) in
  let channels = Array.map snd named in
  (* duplicate names and duplicate physical keys; [by_name] is the one
     array rules resolve names through *)
  let by_name = Array.make tb.names.Lexer.count (-1) in
  let by_key = Hashtbl.create 64 in
  Array.iteri
    (fun i (id, c) ->
      let first j = channels.(j) in
      let j = by_name.(id) in
      if j >= 0 then
        Lexer.error c.cpos "duplicate channel name %S (first declared at %s)" c.cname
          (at (first j).cpos);
      by_name.(id) <- i;
      let key =
        match switching with
        | Net.Wormhole -> (c.csrc, c.cdst, c.cvc)
        | Net.Store_and_forward | Net.Virtual_cut_through ->
          (* custom saf/vct channels elaborate to the whole-packet buffer
             (dst, vc); the source endpoint is not part of the identity *)
          (-1, c.cdst, c.cvc)
      in
      match Hashtbl.find_opt by_key key with
      | Some j -> (
        let f = first j in
        match switching with
        | Net.Wormhole ->
          Lexer.error c.cpos "duplicate channel %d -> %d vc %d (first declared as %S at %s)" c.csrc
            c.cdst c.cvc f.cname (at f.cpos)
        | _ ->
          Lexer.error c.cpos
            "duplicate saf/vct buffer: node %d class %d already declared as %S at %s (under \
             saf/vct a channel names the whole-packet buffer (dst, vc))"
            c.cdst c.cvc f.cname (at f.cpos))
      | None -> Hashtbl.add by_key key i)
    named;
  (* rules: range checks, and names resolved to channel indices in place *)
  (* an error's offset inside a rule is found by lexing the rule again,
     so it is asked for only once the error is certain *)
  let out_of_range pos what n =
    Lexer.error pos "%s %d out of range 0..%d" what n (num_nodes - 1)
  in
  let unknown pos id = Lexer.error pos "unknown channel %S" (spelling tb id) in
  let seen = Array.make (Array.length channels) (-1) in
  for r = 0 to tb.num_rules - 1 do
    let arg = rule tb r r_sel_arg and sel = sel tb r in
    if sel = sel_in then begin
      if by_name.(arg) < 0 then unknown (sel_off tb r) arg;
      set_rule tb r r_sel_arg by_name.(arg)
    end
    else if sel <> sel_all && arg >= num_nodes then out_of_range (sel_off tb r) "selector node" arg;
    let d = rule tb r r_dst in
    if d >= num_nodes then out_of_range (dst_off tb r) "destination node" d;
    let outs = outs tb r in
    if outs = outs_min then begin
      match topology with
      | None ->
        Lexer.error (outs_off tb r)
          "'minimal' requires a topology clause (explicit-channel specs must list outputs)"
      | Some t ->
        if not (Topology.is_grid t) then
          Lexer.error (outs_off tb r)
            "'minimal' requires a grid topology (mesh/torus/hypercube); %s needs explicit \
             output channels"
            (Topology.name t);
        let k = rule tb r r_outs_arg in
        if k >= vcs then Lexer.error (outs_off tb r) "minimal vc %d out of range 0..%d" k (vcs - 1)
    end
    else if outs = outs_list then begin
      let first = rule tb r r_outs_arg and len = rule tb r r_outs_len in
      for o = first to first + len - 1 do
        let id = tb.outs.(o) in
        if by_name.(id) < 0 then unknown (out_off tb r (o - first)) id;
        tb.outs.(o) <- by_name.(id)
      done;
      for o = first to first + len - 1 do
        let i = tb.outs.(o) in
        if seen.(i) = r then
          Lexer.error (out_off tb r (o - first)) "channel %S repeated in the output list"
            channels.(i).cname;
        seen.(i) <- r
      done
    end
  done;
  let name =
    if declared Lexer.kw_network then spelling tb tb.head_val.(Lexer.kw_network) else "spec"
  in
  { name; switching; waiting; num_nodes; topology; vcs; channels; table = tb; size_pos }

let check tb = try Ok (run tb) with Lexer.Error (pos, msg) -> Error (pos, msg)

(* ---------------- the reference view ---------------- *)

type kind = Route | Wait
type sel = At of int | At_all | In of int | Inj of int
type outs = Explicit of int list | Empty | Min of int option
type rule = { kind : kind; sel : sel; dst : int option; outs : outs }

let rules t =
  let tb = t.table in
  List.init tb.num_rules (fun r ->
      let arg = rule tb r r_sel_arg in
      let sel = sel tb r in
      let outs = outs tb r in
      {
        kind = (if kind tb r = Table.route then Route else Wait);
        sel =
          (if sel = sel_at then At arg
           else if sel = sel_all then At_all
           else if sel = sel_in then In arg
           else Inj arg);
        dst = (match rule tb r r_dst with -1 -> None | d -> Some d);
        outs =
          (if outs = outs_none then Empty
           else if outs = outs_min then
             Min (match rule tb r r_outs_arg with -1 -> None | k -> Some k)
           else
             let first = rule tb r r_outs_arg in
             Explicit (List.init (rule tb r r_outs_len) (fun o -> tb.outs.(first + o))));
      })
