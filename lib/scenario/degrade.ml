open Dfr_network
open Dfr_routing
open Dfr_core
module Obs = Dfr_obs.Obs

type t =
  | Filtered of { algo : Algo.t; killed : int list; dirty : int list }
  | Rebuilt of {
      net : Net.t;
      algo : Algo.t;
      killed_nodes : int list;
      killed : int list;
      node_of_old : int array;
    }

let killed_buffers net fault =
  match fault with
  | Fault.Kill_link { src; dst; vc } ->
    let hits =
      List.filter_map
        (fun b ->
          match Buf.kind b with
          | Buf.Channel c
            when c.src = src && c.dst = dst
                 && (match vc with None -> true | Some v -> c.vc = v) ->
            Some (Buf.id b)
          | _ -> None)
        (Array.to_list (Net.buffers net))
    in
    if hits = [] then
      Error
        (Printf.sprintf "no channel %d->%d%s in network %s" src dst
           (match vc with None -> "" | Some v -> Printf.sprintf " vc %d" v)
           (Net.name net))
    else Ok hits
  | Fault.Kill_buffer b ->
    if b < 0 || b >= Net.num_buffers net then
      Error (Printf.sprintf "buffer %d out of range 0..%d" b (Net.num_buffers net - 1))
    else if not (Buf.is_transit (Net.buffer net b)) then
      Error
        (Printf.sprintf
           "buffer %d (%s) is not a transit buffer; injection and delivery \
            buffers cannot be killed"
           b (Net.describe_buffer net b))
    else Ok [ b ]
  | Fault.Kill_node _ -> Error "killed_buffers: node kills change the skeleton"
  | Fault.Storm _ -> Error "killed_buffers: storms must be expanded first"

let ( let* ) = Result.bind

(* The baseline relation with the killed buffers filtered out of every
   route, waiting and reduced-waits set.  The buffer skeleton is
   untouched, so the degraded algorithm can ride an [Incr] session. *)
let filtered space killed =
  let algo = State_space.algo space in
  let num_buffers = State_space.num_buffers space in
  let mask = Array.make num_buffers false in
  List.iter (fun k -> mask.(k) <- true) killed;
  let wrap f net b ~dest = List.filter (fun o -> not mask.(o)) (f net b ~dest) in
  let algo' =
    {
      algo with
      Algo.route = wrap algo.Algo.route;
      waits = wrap algo.Algo.waits;
      reduced_waits = Option.map wrap algo.Algo.reduced_waits;
    }
  in
  (* Frontier soundness: a destination's slice mentions buffer [k] — in a
     route, waiting or reduced set, or as a reachable state — only if [k]
     is reachable for that destination in the baseline, because every
     output list entry is itself a reachable state.  So the destinations
     that baseline-reach some killed buffer cover every slice the filter
     can change. *)
  let dirty = ref [] in
  for dest = State_space.num_nodes space - 1 downto 0 do
    if
      List.exists (fun k -> State_space.is_reachable space ~buf:k ~dest) killed
    then dirty := dest :: !dirty
  done;
  Filtered { algo = algo'; killed; dirty = !dirty }

(* Node kills renumber the survivors into a fresh custom network; the
   degraded algorithm translates buffer ids through the old/new
   correspondence and consults the baseline relation on the old net. *)
let rebuilt space killed_nodes killed =
  let net = State_space.net space in
  let algo = State_space.algo space in
  let n = Net.num_nodes net in
  let* () =
    if
      List.exists
        (fun b ->
          match Buf.kind b with Buf.Node_buffer _ -> true | _ -> false)
        (Array.to_list (Net.buffers net))
    then
      Error
        "kill node: store-and-forward / virtual-cut-through node buffers have \
         no survivor renumbering; node kills need a channel-based network"
    else Ok ()
  in
  let* () =
    match List.find_opt (fun v -> v < 0 || v >= n) killed_nodes with
    | Some v -> Error (Printf.sprintf "node %d out of range 0..%d" v (n - 1))
    | None -> Ok ()
  in
  let dead = Array.make n false in
  List.iter (fun v -> dead.(v) <- true) killed_nodes;
  let survivors = n - List.length killed_nodes in
  let* () =
    if survivors < 2 then
      Error "kill node: fewer than two nodes would survive" else Ok ()
  in
  let kmask = Array.make (Net.num_buffers net) false in
  List.iter (fun k -> kmask.(k) <- true) killed;
  let node_of_old = Array.make n (-1) in
  let old_node = Array.make survivors 0 in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if not dead.(v) then begin
      node_of_old.(v) <- !next;
      old_node.(!next) <- v;
      incr next
    end
  done;
  (* kept channels in old-id order; [Net.custom] creates its channel
     buffers in list order, so the i-th kept channel IS the i-th channel
     buffer of the rebuilt net *)
  let kept =
    List.filter_map
      (fun b ->
        match Buf.kind b with
        | Buf.Channel c
          when (not dead.(c.src)) && (not dead.(c.dst)) && not kmask.(Buf.id b)
          ->
          Some (Buf.id b, c.src, c.dst, c.vc)
        | _ -> None)
      (Array.to_list (Net.buffers net))
  in
  let* () = if kept = [] then Error "kill node: no channels survive" else Ok () in
  let net' =
    Net.custom
      ~name:(Net.name net ^ "~cut")
      ~switching:(Net.switching net) ~num_nodes:survivors
      ~channels:
        (List.map
           (fun (_, s, d, v) -> (node_of_old.(s), node_of_old.(d), v))
           kept)
  in
  let new_channels =
    List.filter_map
      (fun b ->
        match Buf.kind b with Buf.Channel _ -> Some b | _ -> None)
      (Array.to_list (Net.buffers net'))
  in
  let bmap = Array.make (Net.num_buffers net) (-1) in
  let old_of_new = Array.make (Net.num_buffers net') (Net.buffer net 0) in
  List.iter2
    (fun (old_id, _, _, _) nb ->
      bmap.(old_id) <- Buf.id nb;
      old_of_new.(Buf.id nb) <- Net.buffer net old_id)
    kept new_channels;
  for v' = 0 to survivors - 1 do
    let v = old_node.(v') in
    bmap.(Buf.id (Net.injection net v)) <- Buf.id (Net.injection net' v');
    old_of_new.(Buf.id (Net.injection net' v')) <- Net.injection net v;
    bmap.(Buf.id (Net.delivery net v)) <- Buf.id (Net.delivery net' v');
    old_of_new.(Buf.id (Net.delivery net' v')) <- Net.delivery net v
  done;
  let remap f _net nb ~dest =
    let ob = old_of_new.(Buf.id nb) in
    List.filter_map
      (fun b -> if bmap.(b) >= 0 then Some bmap.(b) else None)
      (f net ob ~dest:old_node.(dest))
  in
  let algo' =
    {
      algo with
      Algo.route = remap algo.Algo.route;
      waits = remap algo.Algo.waits;
      reduced_waits = Option.map remap algo.Algo.reduced_waits;
    }
  in
  Ok (Rebuilt { net = net'; algo = algo'; killed_nodes; killed; node_of_old })

let apply space faults =
  let net = State_space.net space in
  let rec resolve nodes bufs = function
    | [] -> Ok (List.sort_uniq compare nodes, List.sort_uniq compare bufs)
    | Fault.Kill_node v :: rest -> resolve (v :: nodes) bufs rest
    | fault :: rest ->
      let* ids = killed_buffers net fault in
      resolve nodes (List.rev_append ids bufs) rest
  in
  let* nodes, killed = resolve [] [] faults in
  match nodes with
  | [] -> Ok (filtered space killed)
  | _ -> rebuilt space nodes killed

(* Reachability runs on each destination's move graph, in the local ids
   of its k states: a source is its injection buffer's id *)
let disconnections space ~killed ~dests ~sources =
  Obs.span "scenario.disconnections" @@ fun () ->
  let net = State_space.net space in
  let mask = Array.make (State_space.num_buffers space) false in
  List.iter (fun k -> mask.(k) <- true) killed;
  List.filter_map
    (fun dest ->
      let candidates =
        List.filter_map
          (fun s ->
            let i = State_space.index space ~buf:(Buf.id (Net.injection net s)) ~dest in
            if s <> dest && i >= 0 then Some (s, i) else None)
          sources
      in
      if candidates = [] then None
      else begin
        let v = State_space.dest_view space ~dest in
        let bufs = v.State_space.view_bufs and g = v.State_space.view_moves in
        let sinks =
          List.filter
            (fun i -> State_space.arrived space ~buf:bufs.(i) ~dest)
            (List.init (Array.length bufs) Fun.id)
        in
        if sinks = [] then Some (dest, List.map fst candidates)
        else begin
          let r = Dfr_graph.Reach.create g ~sinks in
          Dfr_graph.Csr.iter_edges
            (fun i j ->
              if mask.(bufs.(i)) || mask.(bufs.(j)) then
                Dfr_graph.Reach.disable_edge r i j)
            g;
          match
            List.filter_map
              (fun (s, i) -> if Dfr_graph.Reach.reaches r i then None else Some s)
              candidates
          with
          | [] -> None
          | cut -> Some (dest, cut)
        end
      end)
    dests
