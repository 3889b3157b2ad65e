open Dfr_network
open Dfr_core
open Dfr_sim

type t = {
  defined : bool;
  reason : string option;
  packets : int;
  components : int;
  largest_component : int;
  p50 : int;
  p99 : int;
  p100 : int;
}

let undefined ~packets reason =
  {
    defined = false;
    reason = Some reason;
    packets;
    components = 0;
    largest_component = 0;
    p50 = 0;
    p99 = 0;
    p100 = 0;
  }

(* Nearest-rank percentile over the per-packet bounds, the same rank
   convention as [Stats.percentile_latency] so the soundness gate
   compares like with like. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    sorted.(rank - 1)
  end

(* Longest path (in moves) out of every vertex of an acyclic move graph:
   process a topological order backwards so successors are done first. *)
let longest_paths g order =
  let h = Array.make (Dfr_graph.Csr.num_vertices g) 0 in
  List.iter
    (fun v ->
      Dfr_graph.Csr.iter_succ
        (fun w -> if 1 + h.(w) > h.(v) then h.(v) <- 1 + h.(w))
        g v)
    (List.rev order);
  h

(* Buffers multiplexing one physical resource: the virtual channels of a
   directed link share its one-flit-per-cycle bandwidth, so occupancy of
   any of them delays all of them.  Injection/delivery/node buffers are
   their own resource. *)
let link_sharers net =
  let tbl = Hashtbl.create 64 in
  let key b =
    match Buf.kind b with
    | Buf.Channel c -> (0, c.src, c.dst)
    | Buf.Injection n -> (1, n, 0)
    | Buf.Delivery n -> (2, n, 0)
    | Buf.Node_buffer { node; _ } -> (3, node, 0)
  in
  Array.iter
    (fun b ->
      let k = key b in
      Hashtbl.replace tbl k (Buf.id b :: (try Hashtbl.find tbl k with Not_found -> [])))
    (Net.buffers net);
  let sharers = Array.make (Net.num_buffers net) [] in
  Array.iter
    (fun b -> sharers.(Buf.id b) <- Hashtbl.find tbl (key b))
    (Net.buffers net);
  sharers

(* Union-find over packet indices. *)
let rec find parent i = if parent.(i) = i then i else find parent parent.(i)

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then parent.(max ri rj) <- min ri rj

let analyze space bwg traffic =
  let net = State_space.net space in
  let num_buffers = State_space.num_buffers space in
  let num_nodes = State_space.num_nodes space in
  let packets = Array.of_list traffic in
  let np = Array.length packets in
  let bad =
    Array.fold_left
      (fun acc (p : Traffic.packet) ->
        match acc with
        | Some _ -> acc
        | None ->
          if p.src < 0 || p.src >= num_nodes || p.dst < 0 || p.dst >= num_nodes
          then Some (Printf.sprintf "packet endpoint out of range (%d -> %d)" p.src p.dst)
          else if p.src = p.dst then
            Some (Printf.sprintf "packet with src = dst (%d)" p.src)
          else if
            not
              (State_space.is_reachable space
                 ~buf:(Buf.id (Net.injection net p.src))
                 ~dest:p.dst)
          then Some (Printf.sprintf "no route from %d to %d" p.src p.dst)
          else None)
      None packets
  in
  match bad with
  | Some reason -> undefined ~packets:np reason
  | None -> (
    let dests = List.sort_uniq compare (Array.to_list (Array.map (fun (p : Traffic.packet) -> p.dst) packets)) in
    (* per-destination move graphs must be acyclic for a longest path to
       exist; a cyclic one means no finite bound from this analysis *)
    let graphs = Hashtbl.create 16 in
    let cyclic =
      List.find_map
        (fun dest ->
          let v = State_space.dest_view space ~dest in
          let g = v.State_space.view_moves in
          match Dfr_graph.Traversal.topological_sort_csr g with
          | None -> Some dest
          | Some order ->
            Hashtbl.replace graphs dest (v, longest_paths g order);
            None)
        dests
    in
    (* a packet's injection state, as a local id of its destination's graph *)
    let injected (p : Traffic.packet) =
      State_space.index space ~buf:(Buf.id (Net.injection net p.src)) ~dest:p.dst
    in
    match cyclic with
    | Some dest ->
      undefined ~packets:np
        (Printf.sprintf "move graph for destination %d is cyclic" dest)
    | None ->
      if np = 0 then
        {
          defined = true;
          reason = None;
          packets = 0;
          components = 0;
          largest_component = 0;
          p50 = 0;
          p99 = 0;
          p100 = 0;
        }
      else begin
        let sharers = link_sharers net in
        let bwg_csr = Dfr_graph.Digraph.freeze (Bwg.graph bwg) in
        (* occupancy sets: the buffers packet p can ever hold, ascending —
           a reach over the k states of its destination *)
        let occ_cache = Hashtbl.create 64 in
        let occupancy (p : Traffic.packet) =
          match Hashtbl.find_opt occ_cache (p.src, p.dst) with
          | Some r -> r
          | None ->
            let v, _ = Hashtbl.find graphs p.dst in
            let occ =
              Dfr_graph.Traversal.reachable_csr v.State_space.view_moves [ injected p ]
            in
            let r =
              List.filteri (fun j _ -> occ.(j)) (Array.to_list v.State_space.view_bufs)
            in
            Hashtbl.replace occ_cache (p.src, p.dst) r;
            r
        in
        let touch = Array.make num_buffers [] in
        Array.iteri
          (fun i p -> List.iter (fun b -> touch.(b) <- i :: touch.(b)) (occupancy p))
          packets;
        let parent = Array.init np (fun i -> i) in
        (* two packets that can hold the same buffer interfere directly *)
        Array.iter
          (function
            | [] | [ _ ] -> ()
            | first :: rest -> List.iter (fun q -> union parent first q) rest)
          touch;
        (* indirect interference: close each packet's buffer set under BWG
           waiting edges and link multiplexing; any packet touching the
           closure can stall work this packet transitively waits behind *)
        let visited = Array.make num_buffers false in
        let stack = ref [] in
        let frontier = ref [] in
        Array.iteri
          (fun i p ->
            stack := [];
            frontier := [];
            List.iter
              (fun b ->
                visited.(b) <- true;
                stack := b :: !stack;
                frontier := b :: !frontier)
              (occupancy p);
            let push b =
              if not visited.(b) then begin
                visited.(b) <- true;
                stack := b :: !stack;
                frontier := b :: !frontier
              end
            in
            let rec drain () =
              match !frontier with
              | [] -> ()
              | b :: rest ->
                frontier := rest;
                Dfr_graph.Csr.iter_succ push bwg_csr b;
                List.iter push sharers.(b);
                drain ()
            in
            drain ();
            List.iter
              (fun b ->
                (match touch.(b) with [] -> () | q :: _ -> union parent i q);
                visited.(b) <- false)
              !stack)
          packets;
        (* serialize each component: skew to its last injection plus the
           sum of (length + longest route + inject + consume) *)
        let cost i =
          let p = packets.(i) in
          let _, hops = Hashtbl.find graphs p.dst in
          p.length + hops.(injected p) + 2
        in
        let comp_cost = Array.make np 0 in
        let comp_last = Array.make np min_int in
        let comp_size = Array.make np 0 in
        Array.iteri
          (fun i (p : Traffic.packet) ->
            let r = find parent i in
            comp_cost.(r) <- comp_cost.(r) + cost i;
            comp_last.(r) <- max comp_last.(r) p.inject_at;
            comp_size.(r) <- comp_size.(r) + 1)
          packets;
        let bounds =
          Array.mapi
            (fun i (p : Traffic.packet) ->
              let r = find parent i in
              comp_last.(r) - p.inject_at + comp_cost.(r))
            packets
        in
        Array.sort compare bounds;
        let components =
          Array.fold_left (fun acc s -> if s > 0 then acc + 1 else acc) 0 comp_size
        in
        let largest = Array.fold_left max 0 comp_size in
        {
          defined = true;
          reason = None;
          packets = np;
          components;
          largest_component = largest;
          p50 = percentile bounds 0.5;
          p99 = percentile bounds 0.99;
          p100 = percentile bounds 1.0;
        }
      end)

let to_json t =
  let open Dfr_util.Json in
  Obj
    [
      ("defined", Bool t.defined);
      ("reason", match t.reason with None -> Null | Some r -> String r);
      ("packets", Int t.packets);
      ("components", Int t.components);
      ("largest_component", Int t.largest_component);
      ("bound_p50", Int t.p50);
      ("bound_p99", Int t.p99);
      ("bound_p100", Int t.p100);
    ]
