open Dfr_network
open Dfr_graph
module Obs = Dfr_obs.Obs
module Rows = Dfr_util.Bitset.Hybrid.Rows

type wait_sets = buf:int -> dest:int -> int list
type witness = { dest : int; head : int }

(* Witness lists are capped; the insertion count rides along so the cap
   check is O(1) instead of an O(cap) List.length per recorded edge. *)
type wcell = { mutable count : int; mutable ws : witness list }

(* Edge keys are q1 * num_buffers + q2.  A multiply-and-fold hash keeps
   the recorder's hot path free of the C call [Hashtbl.hash] makes, which
   dominates recording on low-degree (store-and-forward) graphs. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 29)) land max_int
end)

type t = {
  space : State_space.t;
  graph : Digraph.t;
  witnesses : wcell Itbl.t; (* keyed by q1 * num_buffers + q2 *)
  wait_sets : wait_sets;
  witness_cap : int;
}

let space t = t.space
let graph t = t.graph
let wait_sets t = t.wait_sets

(* Successors of [q1] as a strictly ascending array, read straight off the
   adjacency.  This is the implicit edge relation the cycle queries run
   on — the BWG is never frozen into a second full CSR copy of its
   adjacency, which matters once the graph has 10^5 vertices. *)
let succ_row t q1 =
  let r = Array.of_list (Digraph.succ t.graph q1) in
  Array.sort (fun (a : int) b -> compare a b) r;
  r

let witnesses t q1 q2 =
  let n = Digraph.num_vertices t.graph in
  if q1 < 0 || q1 >= n || q2 < 0 || q2 >= n then []
  else
    match Itbl.find_opt t.witnesses ((q1 * n) + q2) with
    | Some cell -> List.rev cell.ws
    | None -> []

(* Renumbering scratch for [local_move_graph], one per domain (so one per
   worker of a parallel build), grown to the largest network seen.  Every
   entry is -1 between uses. *)
let local_key = Domain.DLS.new_key (fun () -> ref [||])

(* One destination's move graph over its own k reachable states: local
   vertex i is the i-th reachable buffer (ascending), so local order is
   buffer order and nothing downstream pays for the B - k buffers that
   destination never touches. *)
let local_move_graph space (v : State_space.dest_view) =
  let bufs = v.State_space.view_bufs in
  let k = Array.length bufs in
  let local =
    let r = Domain.DLS.get local_key in
    let nb = State_space.num_buffers space in
    if Array.length !r < nb then r := Array.make nb (-1);
    !r
  in
  Array.iteri (fun i b -> local.(b) <- i) bufs;
  (* every output of a reachable state is itself reachable *)
  let rows =
    Array.map
      (fun outs -> List.sort_uniq Int.compare (List.map (fun o -> local.(o)) outs))
      v.State_space.view_outs
  in
  Array.iter (fun b -> local.(b) <- -1) bufs;
  let offsets = Array.make (k + 1) 0 in
  Array.iteri (fun i row -> offsets.(i + 1) <- offsets.(i) + List.length row) rows;
  let targets = Array.make offsets.(k) 0 in
  Array.iteri
    (fun i row -> List.iteri (fun j w -> targets.(offsets.(i) + j) <- w) row)
    rows;
  Csr.make ~n:k ~offsets ~targets

(* Waiting edges contributed by one destination's traffic: a pure function
   of the destination's slice of the state table, so destinations can be
   processed by separate domains.  All work here is sized by the k states
   the destination can reach, not by the network's B buffers.

   For wormhole switching the blocked header of a packet occupying [q1]
   can sit in any buffer reachable from [q1] in the per-destination move
   graph.  Buffers in the same SCC share that reachability closure, and
   the SCC indices are a reverse topological numbering of the condensation
   (every cross edge points to a lower index), so one pass over components
   in ascending index order computes every closure: seed the component's
   own members, then union in the already-complete closures of its
   successor components — a word-parallel bitset [lor] each.

   [emit q1 w wit] receives each waiting edge in a deterministic order
   (q1 ascending, heads ascending, waits in rule order); the serial build
   passes its edge recorder directly, the domain fan-out accumulates
   per-destination lists and replays them in destination order so both
   paths see the same sequence.  [wait_sets = None] reads the algorithm's
   waiting sets straight off the slice. *)
let edges_for_dest space ~wait_sets ~wormhole ~dense_closures dest ~emit =
  let v = State_space.dest_view space ~dest in
  let bufs = v.State_space.view_bufs in
  let k = Array.length bufs in
  let waits_of i =
    match wait_sets with
    | None -> v.State_space.view_wts.(i)
    | Some ws -> ws ~buf:bufs.(i) ~dest
  in
  if not wormhole then
    for i = 0 to k - 1 do
      let q1 = bufs.(i) in
      let wit = { dest; head = q1 } in
      List.iter (fun w -> emit q1 w wit) (waits_of i)
    done
  else begin
    let g = local_move_graph space v in
    (* The closure pass needs components numbered in reverse topological
       order, with member lists: verts.(start.(c) .. start.(c + 1) - 1).
       Move graphs of deadlock-free algorithms are acyclic, so try a Kahn
       pass first — every vertex its own component, numbered k-1-(topo
       position) — and fall back to Tarjan only when a cycle remains. *)
    let count, comp, start, verts =
      let indeg = Array.make k 0 in
      Csr.iter_edges (fun _ w -> indeg.(w) <- indeg.(w) + 1) g;
      let order = Array.make k 0 in
      let filled = ref 0 in
      for v = 0 to k - 1 do
        if indeg.(v) = 0 then begin
          order.(!filled) <- v;
          incr filled
        end
      done;
      let head = ref 0 in
      while !head < !filled do
        let v = order.(!head) in
        incr head;
        Csr.iter_succ
          (fun w ->
            indeg.(w) <- indeg.(w) - 1;
            if indeg.(w) = 0 then begin
              order.(!filled) <- w;
              incr filled
            end)
          g v
      done;
      if !filled = k then begin
        let comp = Array.make k 0 in
        let verts = Array.make k 0 in
        for i = 0 to k - 1 do
          let c = k - 1 - i in
          comp.(order.(i)) <- c;
          verts.(c) <- order.(i)
        done;
        (k, comp, Array.init (k + 1) Fun.id, verts)
      end
      else begin
        let scc = Scc.compute_csr g in
        let count = scc.Scc.count in
        let comp = scc.Scc.component in
        (* group vertices by component (counting sort) *)
        let start = Array.make (count + 1) 0 in
        for v = 0 to k - 1 do
          start.(comp.(v) + 1) <- start.(comp.(v) + 1) + 1
        done;
        for c = 0 to count - 1 do
          start.(c + 1) <- start.(c + 1) + start.(c)
        done;
        let verts = Array.make k 0 in
        let next = Array.copy start in
        for v = 0 to k - 1 do
          verts.(next.(comp.(v))) <- v;
          next.(comp.(v)) <- next.(comp.(v)) + 1
        done;
        (count, comp, start, verts)
      end
    in
    let closures = Rows.create ~force_dense:dense_closures ~rows:count ~len:k () in
    (* merged.(c') = c marks that c' is already unioned into c's row, so a
       component with many edges into the same successor pays one sweep *)
    let merged = Array.make count (-1) in
    for c = 0 to count - 1 do
      for i = start.(c) to start.(c + 1) - 1 do
        let v = verts.(i) in
        Rows.add closures c v;
        Csr.iter_succ
          (fun w ->
            let cw = comp.(w) in
            if cw <> c && merged.(cw) <> c then begin
              merged.(cw) <- c;
              Rows.union_rows closures ~into:c ~src:cw
            end)
          g v
      done
    done;
    Obs.count "bwg.closure.words" (Rows.storage_words closures);
    Obs.count "bwg.closure.dense-rows" (Rows.dense_rows closures);
    (* Only heads with a non-empty waiting set generate edges: resolve each
       head's waiting set and (shared) witness record once per destination
       into an array, so collecting a component's heads is one pass over
       its closure bits with an O(1) lookup per element — no per-component
       list filtering. *)
    let head_info =
      Array.init k (fun i ->
          match waits_of i with
          | [] -> None
          | ws -> Some ({ dest; head = bufs.(i) }, ws))
    in
    (* waiting heads in a component's closure (ascending), memoized *)
    let heads_of = Array.make count None in
    let heads c =
      match heads_of.(c) with
      | Some hs -> hs
      | None ->
        let acc = ref [] in
        Rows.iter_row
          (fun v ->
            match head_info.(v) with
            | Some info -> acc := info :: !acc
            | None -> ())
          closures c;
        let hs = List.rev !acc in
        heads_of.(c) <- Some hs;
        hs
    in
    for i = 0 to k - 1 do
      let q1 = bufs.(i) in
      List.iter
        (fun (wit, ws) -> List.iter (fun w -> emit q1 w wit) ws)
        (heads comp.(i))
    done
  end

let default_wait_sets space =
 fun ~buf ~dest -> State_space.waits space ~buf ~dest

(* Shared edge recorder: the witness cell, found through the (q1, q2)
   index in O(1), doubles as the duplicate-edge check, so only the first
   witness of an edge touches the adjacency structure.  Both the cold
   build and [replay] feed emissions through this same code, which is
   what makes a replayed BWG structurally identical to a built one. *)
let make_recorder ~witness_cap ~graph ~witnesses =
  let n = Digraph.num_vertices graph in
  fun q1 q2 w ->
    let key = (q1 * n) + q2 in
    match Itbl.find_opt witnesses key with
    | Some cell ->
      if cell.count < witness_cap then begin
        cell.ws <- w :: cell.ws;
        cell.count <- cell.count + 1
      end
      else Obs.count "bwg.witnesses.capped" 1
    | None ->
      Itbl.add witnesses key { count = 1; ws = [ w ] };
      Digraph.unsafe_add_edge graph q1 q2

let dest_edges ?wait_sets ?(dense_closures = false) space ~dest ~emit =
  let wormhole = Net.switching (State_space.net space) = Net.Wormhole in
  edges_for_dest space ~wait_sets ~wormhole ~dense_closures dest ~emit

let replay ?wait_sets ?(witness_cap = 32) space f =
  let graph = Digraph.create (State_space.num_buffers space) in
  let witnesses = Itbl.create 1024 in
  f (make_recorder ~witness_cap ~graph ~witnesses);
  let wait_sets = Option.value wait_sets ~default:(default_wait_sets space) in
  { space; graph; witnesses; wait_sets; witness_cap }

let build ?wait_sets ?(witness_cap = 32) ?(indirect = true) ?(domains = 1)
    ?(dense_closures = false) space =
  Obs.span "bwg.build" @@ fun () ->
  let net = State_space.net space in
  let num_nodes = State_space.num_nodes space in
  let num_bufs = State_space.num_buffers space in
  let graph = Digraph.create num_bufs in
  let witnesses = Itbl.create 1024 in
  let add_edge = make_recorder ~witness_cap ~graph ~witnesses in
  let wormhole = indirect && Net.switching net = Net.Wormhole in
  if domains <= 1 || num_nodes <= 1 then
    (* serial: stream edges straight into the recorder, no staging lists *)
    for d = 0 to num_nodes - 1 do
      Obs.span "bwg.closure" (fun () ->
          edges_for_dest space ~wait_sets ~wormhole ~dense_closures d
            ~emit:add_edge)
    done
  else begin
    (* Work items are single destinations claimed off an atomic ticket,
       not static chunks, so an expensive destination never leaves a
       whole chunk idle behind it.  Determinism is unaffected: emissions
       are staged per destination and merged in ascending order below,
       and every Obs counter on this path is a per-destination sum. *)
    let n_dom = min domains num_nodes in
    let results = Array.make num_nodes [] in
    let next = Atomic.make 0 in
    Dfr_util.Domain_pool.parallel ~domains:n_dom (fun _ ->
        Obs.span "bwg.build.worker" @@ fun () ->
        let continue = ref true in
        while !continue do
          let d = Atomic.fetch_and_add next 1 in
          if d >= num_nodes then continue := false
          else
            Obs.span "bwg.closure" (fun () ->
                let acc = ref [] in
                edges_for_dest space ~wait_sets ~wormhole ~dense_closures d
                  ~emit:(fun q w wit -> acc := (q, w, wit) :: !acc);
                results.(d) <- !acc)
        done);
    (* merge sequentially: destinations ascending, witnesses in emit order,
       so the result is identical to the serial construction *)
    Array.iter
      (fun es -> List.iter (fun (q, w, wit) -> add_edge q w wit) (List.rev es))
      results
  end;
  Obs.gauge "bwg.vertices" (float_of_int num_bufs);
  Obs.gauge "bwg.edges" (float_of_int (Digraph.num_edges graph));
  let wait_sets = Option.value wait_sets ~default:(default_wait_sets space) in
  { space; graph; witnesses; wait_sets; witness_cap }

(* Kahn's pass over the adjacency directly: no frozen CSR, no sorting —
   acyclicity does not depend on visit order. *)
let is_acyclic t =
  let g = t.graph in
  let n = Digraph.num_vertices g in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    Digraph.iter_succ (fun w -> indeg.(w) <- indeg.(w) + 1) g v
  done;
  let stack = ref [] in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then stack := v :: !stack
  done;
  let seen = ref 0 in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | v :: tl ->
      stack := tl;
      incr seen;
      Digraph.iter_succ
        (fun w ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then stack := w :: !stack)
        g v
  done;
  !seen = n

(* Only the Theorem-1 certificate needs a materialized order; freeze a
   transient CSR so the output is byte-identical to the historical frozen
   path, and let it be collected immediately after. *)
let topological_order t = Traversal.topological_sort_csr (Digraph.freeze t.graph)

let cycles ?limits t =
  Cycles.enumerate_checked_rows ?limits ~n:(Digraph.num_vertices t.graph)
    ~row:(succ_row t) ()

let fold_cycles ?limits t f init =
  Cycles.fold_rows ?limits ~n:(Digraph.num_vertices t.graph) ~row:(succ_row t) f
    init

let unconnected_states ?domains t =
  State_space.filter_reachable ?domains t.space (fun ~buf ~dest ->
      (not (State_space.arrived t.space ~buf ~dest))
      && t.wait_sets ~buf ~dest = [])

let is_wait_connected t = unconnected_states t = []

let to_dot t =
  let net = State_space.net t.space in
  Dot.to_string ~name:"bwg"
    ~vertex_label:(fun v -> Net.describe_buffer net v)
    t.graph
