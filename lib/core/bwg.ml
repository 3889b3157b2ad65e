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

type group = { q1 : int; head : int; targets : int list }

(* [dest_edges] emits, for each q1 and each waiting head in q1's closure,
   that head's waits in rule order, so grouping on a change of
   (q1, head) is lossless: the groups' targets, concatenated in order,
   are the emission sequence. *)
let dest_groups ?wait_sets space ~dest =
  let groups = ref [] in
  let q1 = ref (-1) and head = ref (-1) and targets = ref [] in
  let flush () =
    if !q1 >= 0 then
      groups := { q1 = !q1; head = !head; targets = List.rev !targets } :: !groups
  in
  dest_edges ?wait_sets space ~dest ~emit:(fun q1' q2 wit ->
      if q1' <> !q1 || wit.head <> !head then begin
        flush ();
        q1 := q1';
        head := wit.head;
        targets := []
      end;
      targets := q2 :: !targets);
  flush ();
  List.rev !groups

let replay ?wait_sets ?(witness_cap = 32) space f =
  let graph = Digraph.create (State_space.num_buffers space) in
  let witnesses = Itbl.create 1024 in
  f (make_recorder ~witness_cap ~graph ~witnesses);
  let wait_sets = Option.value wait_sets ~default:(default_wait_sets space) in
  { space; graph; witnesses; wait_sets; witness_cap }

(* [f d] for every destination, over [domains] pool workers when there
   is more than one.  Work items are single destinations claimed off an
   atomic ticket, not static chunks, so an expensive destination never
   leaves a whole chunk idle behind it. *)
let each_dest ~domains num_nodes f =
  if domains <= 1 || num_nodes <= 1 then
    for d = 0 to num_nodes - 1 do
      f d
    done
  else
    let next = Atomic.make 0 in
    Dfr_util.Domain_pool.parallel ~domains:(min domains num_nodes) (fun _ ->
        Obs.span "bwg.build.worker" @@ fun () ->
        let continue = ref true in
        while !continue do
          let d = Atomic.fetch_and_add next 1 in
          if d >= num_nodes then continue := false else f d
        done)

let build ?(witness_cap = 32) ?(indirect = true) ?(domains = 1)
    ?(dense_closures = false) space =
  Obs.span "bwg.build" @@ fun () ->
  let net = State_space.net space in
  let num_nodes = State_space.num_nodes space in
  let num_bufs = State_space.num_buffers space in
  let graph = Digraph.create num_bufs in
  let witnesses = Itbl.create 1024 in
  let add_edge = make_recorder ~witness_cap ~graph ~witnesses in
  let wormhole = indirect && Net.switching net = Net.Wormhole in
  let edges_for_dest = edges_for_dest space ~wait_sets:None ~wormhole ~dense_closures in
  if domains <= 1 || num_nodes <= 1 then
    (* serial: stream edges straight into the recorder, no staging lists *)
    for d = 0 to num_nodes - 1 do
      Obs.span "bwg.closure" (fun () -> edges_for_dest d ~emit:add_edge)
    done
  else begin
    (* Determinism is unaffected by the fan-out: emissions are staged per
       destination and merged in ascending order below, and every Obs
       counter on this path is a per-destination sum. *)
    let results = Array.make num_nodes [] in
    each_dest ~domains num_nodes (fun d ->
        Obs.span "bwg.closure" (fun () ->
            let acc = ref [] in
            edges_for_dest d ~emit:(fun q w wit -> acc := (q, w, wit) :: !acc);
            results.(d) <- !acc));
    (* merge sequentially: destinations ascending, witnesses in emit order,
       so the result is identical to the serial construction *)
    Array.iter
      (fun es -> List.iter (fun (q, w, wit) -> add_edge q w wit) (List.rev es))
      results
  end;
  (* only the full BWG reports its size: a BWG' of the same instance
     would overwrite the figure the report prints *)
  Obs.gauge "bwg.vertices" (float_of_int num_bufs);
  Obs.gauge "bwg.edges" (float_of_int (Digraph.num_edges graph));
  { space; graph; witnesses; wait_sets = default_wait_sets space; witness_cap }

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

(* A wait-set session keeps one BWG' up to date under removals and
   restorations of wait entries (DESIGN.md §9).

   With routes fixed, a destination's emission sequence under any subset
   of its waiting rule is its groups under the full rule with each
   group's targets narrowed to the head's live entries (a head whose
   entries are all removed emits nothing), so the closures run once, on
   the first read.  A changed entry (head, dest, target) can then only
   change the witnesses [dest] gives the edges q1 -> target of the groups
   headed by [head]: re-deriving a dirty destination recomputes those
   slots from their q1's run of groups and patches the ones that differ.

   Every edge keeps a slot per contributing destination, destinations
   ascending, holding that destination's witnesses in emission order; the
   edge's witness cell is the first [witness_cap] of their concatenation
   — what the cold recorder keeps — and the edge exists while some slot
   does.  Witness records are allocated once per state, so slots compare
   by physical equality.  Edges enter the adjacency in cold order on the
   first read; later patches append, so rows may drift from it. *)
module Session = struct
  type bwg = t

  type slot = { mutable per_dest : (int * witness list) list; cell : wcell }

  type derived = {
    bwg : bwg;
    q1s : int array array; (* per dest: each group's q1, in emission order *)
    heads : int array array; (* per dest: each group's head, a local state *)
    headed : int list array array; (* per dest, per local state: its groups *)
    wits : witness array array; (* per dest, per local state *)
    slots : slot Itbl.t; (* keyed by q1 * num_buffers + q2 *)
  }

  type t = {
    space : State_space.t;
    witness_cap : int;
    domains : int;
    base : int list array array; (* per dest, per local state: the rule *)
    live : int list array array; (* subsequences of [base] *)
    mutable derived : derived option;
    changed : (int * int) list array;
        (* per dest: (local state, target) entries changed since the last read *)
    mutable dirty : int list; (* the destinations with changes *)
  }

  (* [f ~dest view] for every destination's view *)
  let per_dest space f =
    Array.init (State_space.num_nodes space) (fun dest ->
        f ~dest (State_space.dest_view space ~dest))

  let create ?(witness_cap = 32) ?waits ?(domains = 1) space =
    let n = State_space.num_nodes space in
    let base =
      per_dest space (fun ~dest v ->
          match waits with
          | None -> v.State_space.view_wts
          | Some ws -> Array.map (fun buf -> ws ~buf ~dest) v.State_space.view_bufs)
    in
    {
      space;
      witness_cap;
      domains;
      base;
      live = Array.map Array.copy base;
      derived = None;
      changed = Array.make n [];
      dirty = [];
    }

  let find s ~buf ~dest = State_space.index s.space ~buf ~dest

  let waits s ~buf ~dest =
    let i = find s ~buf ~dest in
    if i < 0 then [] else s.live.(dest).(i)

  let is_live s ~buf ~dest target =
    let i = find s ~buf ~dest in
    i < 0
    || List.mem target s.live.(dest).(i)
    || not (List.mem target s.base.(dest).(i))

  (* apply [f] to the live entries of a reachable state, noting the change *)
  let change s ~buf ~dest target what f =
    let i = find s ~buf ~dest in
    if i < 0 then invalid_arg ("Bwg.Session." ^ what ^ ": unreachable state");
    s.live.(dest).(i) <- f s.base.(dest).(i) s.live.(dest).(i);
    if s.changed.(dest) = [] then s.dirty <- dest :: s.dirty;
    s.changed.(dest) <- (i, target) :: s.changed.(dest)

  let remove s ~buf ~dest target =
    change s ~buf ~dest target "remove" (fun _ live ->
        let rec drop = function
          | [] -> invalid_arg "Bwg.Session.remove: not a live wait entry"
          | w :: rest -> if w = target then rest else w :: drop rest
        in
        drop live)

  let restore s ~buf ~dest target =
    (* [live] with one more [target], in rule order *)
    let rec readmit rule live =
      match (rule, live) with
      | r :: rule', l :: live' when r = l -> l :: readmit rule' live'
      | r :: _, _ when r = target -> target :: live
      | _ :: rule', _ -> readmit rule' live
      | [], _ -> invalid_arg "Bwg.Session.restore: not a removed wait entry"
    in
    change s ~buf ~dest target "restore" readmit

  (* the cell reads the first [witness_cap] witnesses over the slots *)
  let refill cap sl =
    let rec take n acc = function
      | [] -> (n, acc)
      | (_, ws) :: rest ->
        let rec each n acc = function
          | w :: tl when n < cap -> each (n + 1) (w :: acc) tl
          | _ -> (n, acc)
        in
        let n, acc = each n acc ws in
        if n >= cap then (n, acc) else take n acc rest
    in
    let n, ws = take 0 [] sl.per_dest in
    sl.cell.count <- n;
    sl.cell.ws <- ws

  let add_edge dr key sl =
    let g = dr.bwg.graph in
    let nb = Digraph.num_vertices g in
    Itbl.add dr.bwg.witnesses key sl.cell;
    Digraph.unsafe_add_edge g (key / nb) (key mod nb)

  (* set destination [d]'s witnesses of edge [key] to [ws] ([[]]: none) *)
  let patch s dr key d ws =
    match Itbl.find_opt dr.slots key with
    | None ->
      if ws <> [] then begin
        let sl = { per_dest = [ (d, ws) ]; cell = { count = 0; ws = [] } } in
        refill s.witness_cap sl;
        Itbl.add dr.slots key sl;
        add_edge dr key sl
      end
    | Some sl ->
      let old = Option.value (List.assoc_opt d sl.per_dest) ~default:[] in
      if not (List.equal ( == ) old ws) then begin
        let rec set = function
          | ((d', _) as x) :: rest when d' < d -> x :: set rest
          | (d', _) :: rest when d' = d -> if ws = [] then rest else (d, ws) :: rest
          | rest -> if ws = [] then rest else (d, ws) :: rest
        in
        sl.per_dest <- set sl.per_dest;
        if sl.per_dest <> [] then refill s.witness_cap sl
        else begin
          let g = dr.bwg.graph in
          let nb = Digraph.num_vertices g in
          Itbl.remove dr.slots key;
          Itbl.remove dr.bwg.witnesses key;
          Digraph.remove_edge g (key / nb) (key mod nb)
        end
      end

  (* Re-derive destination [d]: the witnesses it now gives every edge a
     changed entry generates — each edge's q1 run of groups, in emission
     order — then patch the slots that differ. *)
  let rederive s dr d =
    let nb = State_space.num_buffers s.space in
    let q1s = dr.q1s.(d) and heads = dr.heads.(d) in
    let wits = dr.wits.(d) and live = s.live.(d) in
    let fresh =
      Obs.span "bwg.closure" @@ fun () ->
      let touched =
        List.sort_uniq
          (fun (a, _, _) (b, _, _) -> Int.compare a b)
          (List.concat_map
             (fun (h, t) ->
               List.map (fun g -> ((q1s.(g) * nb) + t, g, t)) dr.headed.(d).(h))
             s.changed.(d))
      in
      List.map
        (fun (key, g, t) ->
          let q1 = q1s.(g) in
          let g = ref g and acc = ref [] in
          while !g > 0 && q1s.(!g - 1) = q1 do
            decr g
          done;
          while !g < Array.length q1s && q1s.(!g) = q1 do
            let h = heads.(!g) in
            List.iter (fun w -> if w = t then acc := wits.(h) :: !acc) live.(h);
            incr g
          done;
          (key, List.rev !acc))
        touched
    in
    Obs.span "bwg.patch" (fun () ->
        List.iter (fun (key, ws) -> patch s dr key d ws) fresh)

  (* destination [d]'s emissions under the live sets [live], in order *)
  let iter_emissions dr live d emit =
    let heads = dr.heads.(d) and wits = dr.wits.(d) in
    Array.iteri
      (fun g q1 ->
        let h = heads.(g) in
        List.iter (fun w -> emit q1 w wits.(h)) live.(d).(h))
      dr.q1s.(d)

  (* The first read: capture every destination's groups under the rule
     (the closures, over the pool with [domains] > 1), then stream the
     emissions into the slots as the cold recorder would, building each
     list newest first and turning it round at the end. *)
  let derive_all s =
    let n = State_space.num_nodes s.space in
    let nb = State_space.num_buffers s.space in
    let bwg =
      {
        space = s.space;
        graph = Digraph.create nb;
        witnesses = Itbl.create 1024;
        wait_sets = (fun ~buf ~dest -> waits s ~buf ~dest);
        witness_cap = s.witness_cap;
      }
    in
    let dr =
      {
        bwg;
        q1s = Array.make n [||];
        heads = Array.make n [||];
        headed = Array.map (fun rule -> Array.make (Array.length rule) []) s.base;
        wits =
          per_dest s.space (fun ~dest v ->
              Array.map (fun head -> { dest; head }) v.State_space.view_bufs);
        slots = Itbl.create 1024;
      }
    in
    let rule ~buf ~dest = s.base.(dest).(find s ~buf ~dest) in
    let capture d =
      Obs.span "bwg.closure" @@ fun () ->
      let groups = Array.of_list (dest_groups ~wait_sets:rule s.space ~dest:d) in
      let heads = Array.map (fun g -> find s ~buf:g.head ~dest:d) groups in
      dr.q1s.(d) <- Array.map (fun g -> g.q1) groups;
      dr.heads.(d) <- heads;
      for g = Array.length heads - 1 downto 0 do
        dr.headed.(d).(heads.(g)) <- g :: dr.headed.(d).(heads.(g))
      done
    in
    each_dest ~domains:s.domains n capture;
    Obs.span "bwg.patch" (fun () ->
        for d = 0 to n - 1 do
          iter_emissions dr s.live d (fun q1 w wit ->
              let key = (q1 * nb) + w in
              match Itbl.find_opt dr.slots key with
              | None ->
                let sl = { per_dest = [ (d, [ wit ]) ]; cell = { count = 0; ws = [] } } in
                Itbl.add dr.slots key sl;
                add_edge dr key sl
              | Some sl -> (
                match sl.per_dest with
                | (d', ws) :: rest when d' = d -> sl.per_dest <- (d, wit :: ws) :: rest
                | rest -> sl.per_dest <- (d, [ wit ]) :: rest))
        done;
        Itbl.iter
          (fun _ sl ->
            sl.per_dest <- List.rev_map (fun (d, ws) -> (d, List.rev ws)) sl.per_dest;
            refill s.witness_cap sl)
          dr.slots);
    dr

  let derived s =
    let derived, dr =
      match s.derived with
      | None ->
        let dr = derive_all s in
        s.derived <- Some dr;
        (Array.length s.changed, dr)
      | Some dr ->
        let dirty = List.sort Int.compare s.dirty in
        List.iter (rederive s dr) dirty;
        (List.length dirty, dr)
    in
    List.iter (fun d -> s.changed.(d) <- []) s.dirty;
    s.dirty <- [];
    Obs.count "bwg.session.rederived" derived;
    dr

  let bwg s = (derived s).bwg

  let snapshot s =
    let dr = derived s in
    let live = Array.map Array.copy s.live in
    replay ~witness_cap:s.witness_cap
      ~wait_sets:(fun ~buf ~dest ->
        let i = find s ~buf ~dest in
        if i < 0 then [] else live.(dest).(i))
      s.space
      (fun emit ->
        for d = 0 to Array.length live - 1 do
          iter_emissions dr live d emit
        done)
end
