open Dfr_network
open Dfr_graph
module Obs = Dfr_obs.Obs
module Arena = Dfr_util.Bitset.Arena
module Count_table = Dfr_util.Count_table

type witness = { dest : int; head : int }

(* the session a live view reads ([Session.of_view]); Session adds its
   one constructor *)
type lender = ..

type t = {
  space : State_space.t;
  graph : Digraph.t;
  witnesses : int -> int -> witness list * bool;
      (* of q1 -> q2, both in range, and whether none was cut: [derive]
         over kept groups, or the reference recorder's cell *)
  acyclic : unit -> bool;
      (* the Kahn pass over [graph], or a session's kept rank *)
  unconnected : unit -> (int * int) list;
      (* the state table's wait-less record, or a session's live sets *)
  lender : lender option;
}

let space t = t.space
let graph t = t.graph

let witnesses t q1 q2 =
  let n = Digraph.num_vertices t.graph in
  if q1 < 0 || q1 >= n || q2 < 0 || q2 >= n then ([], true) else t.witnesses q1 q2

(* The waiting rule is the algorithm's: each slice's own wait rows
   ([State_space.rows], buffer ids in rule order), read in place.  A
   session narrows it by one flag per entry; [all_live] stands for every
   entry live, so a destination none of whose entries changed has no
   flags at all. *)
let all_live = Bytes.empty
let live_at flags p = Bytes.length flags = 0 || Bytes.unsafe_get flags p <> '\000'
let wait_rows space d = (State_space.dest_view space ~dest:d).State_space.view_wts

(* [f w] for every live entry of row [h] *)
let iter_live (rule : State_space.rows) flags h f =
  for p = rule.State_space.first.(h) to rule.State_space.first.(h + 1) - 1 do
    if live_at flags p then f rule.State_space.items.(p)
  done

(* One destination's (occupied state, waiting head) groups in emission
   order: local state [i]'s are [first.(i)] .. [first.(i + 1) - 1], group
   [j] headed by local state [heads.(j)], heads ascending per state.  A
   group exists for every state [h] with waits that the blocked header
   of a packet occupying [i] can sit in: [i] itself for packet-buffered
   switching, any state reachable from [i] in the destination's move
   graph for wormhole.  Each group emits its head's waits, in rule
   order, for the occupied buffer, so a destination's emission sequence
   under any subset of its rule is its groups under the full rule with
   each head's waits narrowed.  The arrays are a pure function of the
   destination's slice, so destinations can be captured by separate
   domains, and are never written after [capture], so any domain may
   read them. *)
type groups = { first : int array; heads : int array }

let no_groups = { first = [||]; heads = [||] }

(* One domain's closure scratch, reused across destinations and grown to
   the largest one seen: Kahn's in-degrees and order, each state's
   component, the components' members (verts.(start.(c) ..
   start.(c + 1) - 1)), the merge marks and the row arena.  Every pass
   writes what it reads before reading it, so one that raised leaves
   nothing the next could see. *)
type scratch = {
  mutable indeg : int array;
  mutable order : int array;
  mutable comp : int array;
  mutable start : int array;
  mutable verts : int array;
  mutable merged : int array;
  arena : Arena.t;
}

let scratch =
  Dfr_util.Per_domain.make (fun () ->
      {
        indeg = [||];
        order = [||];
        comp = [||];
        start = [||];
        verts = [||];
        merged = [||];
        arena = Arena.create ();
      })

let fit a n = if Array.length a >= n then a else Array.make n 0

(* The closure pass needs the move graph's k states grouped into
   components numbered in reverse topological order (every cross edge
   points to a lower index), into [s]; returns how many.  Move graphs of
   deadlock-free algorithms are acyclic, so try a Kahn pass first —
   every vertex its own component, numbered k-1-(topo position) — and
   fall back to Tarjan only when a cycle remains. *)
let components s g k =
  s.indeg <- fit s.indeg k;
  s.order <- fit s.order k;
  s.comp <- fit s.comp k;
  s.start <- fit s.start (k + 1);
  s.verts <- fit s.verts k;
  let indeg = s.indeg and order = s.order and comp = s.comp in
  let start = s.start and verts = s.verts in
  Array.fill indeg 0 k 0;
  Csr.iter_edges (fun _ w -> indeg.(w) <- indeg.(w) + 1) g;
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
    let lo, hi = Csr.row g v in
    for p = lo to hi - 1 do
      let w = Csr.target g p in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then begin
        order.(!filled) <- w;
        incr filled
      end
    done
  done;
  if !filled = k then begin
    for i = 0 to k - 1 do
      let c = k - 1 - i in
      comp.(order.(i)) <- c;
      verts.(c) <- order.(i);
      start.(i) <- i
    done;
    start.(k) <- k;
    k
  end
  else begin
    let scc = Scc.compute_csr g in
    let count = scc.Scc.count in
    Array.blit scc.Scc.component 0 comp 0 k;
    (* group vertices by component (counting sort), [order] the cursor *)
    Array.fill start 0 (count + 1) 0;
    for v = 0 to k - 1 do
      start.(comp.(v) + 1) <- start.(comp.(v) + 1) + 1
    done;
    for c = 0 to count - 1 do
      start.(c + 1) <- start.(c + 1) + start.(c)
    done;
    Array.blit start 0 order 0 count;
    for v = 0 to k - 1 do
      verts.(order.(comp.(v))) <- v;
      order.(comp.(v)) <- order.(comp.(v)) + 1
    done;
    count
  end

(* destination [d]'s groups under its wait rows.

   For wormhole switching the heads of a packet occupying state [i] are
   the waiting states of [i]'s reachability closure.  States in one
   component share it, and one pass over the components in ascending
   index order computes every closure: a component's row is its own
   waiting members and the finished rows of its successor components
   (keeping only states with waits commutes with the union).  The rows go to
   the domain's arena, one each, and the groups are read off them. *)
let capture space ~wormhole ~dense_closures d =
  Obs.span "bwg.closure" @@ fun () ->
  let rule = wait_rows space d in
  let k = Array.length rule.State_space.first - 1 in
  let waits v = rule.State_space.first.(v) < rule.State_space.first.(v + 1) in
  let first = Array.make (k + 1) 0 in
  if not wormhole then begin
    for i = 0 to k - 1 do
      first.(i + 1) <- (first.(i) + if waits i then 1 else 0)
    done;
    let heads = Array.make first.(k) 0 in
    for i = 0 to k - 1 do
      if waits i then heads.(first.(i)) <- i
    done;
    { first; heads }
  end
  else
    Dfr_util.Per_domain.use scratch @@ fun s ->
    let g = (State_space.dest_view space ~dest:d).State_space.view_moves in
    let count = components s g k in
    let arena = s.arena and comp = s.comp in
    Arena.reset ~force_dense:dense_closures arena ~len:k;
    (* merged.(c') = c marks that c' is already unioned into c's row, so a
       component with many edges into the same successor pays one union *)
    s.merged <- fit s.merged count;
    let merged = s.merged in
    Array.fill merged 0 count (-1);
    for c = 0 to count - 1 do
      for i = s.start.(c) to s.start.(c + 1) - 1 do
        let v = s.verts.(i) in
        if waits v then Arena.add arena v;
        let lo, hi = Csr.row g v in
        for p = lo to hi - 1 do
          let cw = comp.(Csr.target g p) in
          if cw <> c && merged.(cw) <> c then begin
            merged.(cw) <- c;
            Arena.union arena cw
          end
        done
      done;
      ignore (Arena.finish arena : int)
    done;
    Obs.count "bwg.closure.words" (Arena.storage_words arena);
    Obs.count "bwg.closure.dense-rows" (Arena.dense_rows arena);
    for i = 0 to k - 1 do
      first.(i + 1) <- first.(i) + Arena.cardinal_row arena comp.(i)
    done;
    let heads = Array.make first.(k) 0 in
    let j = ref 0 in
    let put h =
      heads.(!j) <- h;
      incr j
    in
    for i = 0 to k - 1 do
      Arena.iter_row put arena comp.(i)
    done;
    { first; heads }

(* [f q1 h] for destination [d]'s groups in emission order: the occupied
   buffer and the head's local state *)
let iter_dest_groups space d { first; heads } f =
  let bufs = (State_space.dest_view space ~dest:d).State_space.view_bufs in
  for i = 0 to Array.length first - 2 do
    for j = first.(i) to first.(i + 1) - 1 do
      f bufs.(i) heads.(j)
    done
  done

(* The edge pass over every destination's groups, its wait rows narrowed
   by [live.(d)] giving destination [d]'s heads' waits, into the empty
   [graph]: a stable counting sort of the emission targets by q1
   (destinations ascending, then emission order), then one walk per q1
   bucket with a stamp array over q2.  An edge enters the adjacency at
   its first emission, so rows come out in the order the reference
   recorder gives them.  The walk counts a row's j-th edge in its
   bucket's j-th slot, already read.  Returns the emissions, those past
   their edge's first [witness_cap] (what the recorder drops), and
   [iter_counts f], [f q1 q2 n] on every edge. *)
let edge_pass ~witness_cap graph space groups live =
  let nb = State_space.num_buffers space in
  (* [f q1 w] for every live emission, in emission order, allocating
     nothing per group *)
  let iter_emitting f =
    for d = 0 to Array.length groups - 1 do
      let { first; heads } = groups.(d) in
      let bufs = (State_space.dest_view space ~dest:d).State_space.view_bufs in
      let { State_space.first = row; items } = wait_rows space d and flags = live.(d) in
      for i = 0 to Array.length first - 2 do
        let q1 = bufs.(i) in
        for j = first.(i) to first.(i + 1) - 1 do
          let h = heads.(j) in
          for p = row.(h) to row.(h + 1) - 1 do
            if live_at flags p then f q1 items.(p)
          done
        done
      done
    done
  in
  let start = Array.make (nb + 1) 0 in
  iter_emitting (fun q1 _ -> start.(q1 + 1) <- start.(q1 + 1) + 1);
  for q = 0 to nb - 1 do
    start.(q + 1) <- start.(q + 1) + start.(q)
  done;
  let targets = Array.make start.(nb) 0 in
  let next = Array.sub start 0 nb in
  iter_emitting (fun q1 w ->
      targets.(next.(q1)) <- w;
      next.(q1) <- next.(q1) + 1);
  (* stamp.(q2) = q1 while q1's bucket has seen q2, counted in slot
     at.(q2) *)
  let stamp = Array.make nb (-1) and at = Array.make nb 0 in
  let capped = ref 0 in
  for q1 = 0 to nb - 1 do
    let slot = ref start.(q1) in
    for p = start.(q1) to start.(q1 + 1) - 1 do
      let q2 = targets.(p) in
      if stamp.(q2) <> q1 then begin
        stamp.(q2) <- q1;
        at.(q2) <- !slot;
        targets.(!slot) <- 1;
        incr slot;
        Digraph.unsafe_add_edge graph q1 q2
      end
      else begin
        let n = targets.(at.(q2)) + 1 in
        targets.(at.(q2)) <- n;
        if n > witness_cap then incr capped
      end
    done
  done;
  let iter_counts f =
    for q1 = 0 to nb - 1 do
      let slot = ref start.(q1) in
      Digraph.iter_succ
        (fun q2 ->
          f q1 q2 targets.(!slot);
          incr slot)
        graph q1
    done
  in
  (start.(nb), !capped, iter_counts)

(* The one walk over the emitters of edge q1 -> q2 under the wait rows
   narrowed by [live]: destinations ascending; in each, q1's groups,
   heads ascending; [f dest head n] for each group whose head's live row
   holds q2 [n] > 0 times ([head] a buffer id), until [f] answers false.
   Reads only its arguments, so any domain may walk while nothing writes
   them: a cold build's never change, a session's only on a change or a
   read. *)
let walk_emitters space groups live q1 q2 f =
  let go = ref true and dest = ref 0 in
  while !go && !dest < Array.length groups do
    let d = !dest in
    let i = State_space.index space ~buf:q1 ~dest:d in
    if i >= 0 then begin
      let { first; heads } = groups.(d) in
      let bufs = (State_space.dest_view space ~dest:d).State_space.view_bufs in
      let j = ref first.(i) in
      while !go && !j < first.(i + 1) do
        let h = heads.(!j) and n = ref 0 in
        iter_live (wait_rows space d) live.(d) h (fun w -> if w = q2 then incr n);
        if !n > 0 then go := f d bufs.(h) !n;
        incr j
      done
    end;
    incr dest
  done

(* The witnesses the reference recorder keeps for q1 -> q2: a witness
   per emission, the first [witness_cap], and whether they are all of
   them.  The walk goes one emission past the cap to tell. *)
let derive ~witness_cap space groups live q1 q2 =
  let acc = ref [] and kept = ref 0 and seen = ref 0 in
  walk_emitters space groups live q1 q2 (fun dest head n ->
      seen := !seen + n;
      while !kept < min !seen witness_cap do
        acc := { dest; head } :: !acc;
        incr kept
      done;
      !seen <= witness_cap);
  (List.rev !acc, !seen <= witness_cap)

(* One destination's groups as an emission stream: each group's head's
   waits, in rule order, emitted for its occupied buffer with one witness
   record per group. *)
let dest_edges ?(dense_closures = false) space ~dest ~emit =
  let v = State_space.dest_view space ~dest in
  let bufs = v.State_space.view_bufs and rule = v.State_space.view_wts in
  let wormhole = Net.switching (State_space.net space) = Net.Wormhole in
  iter_dest_groups space dest (capture space ~wormhole ~dense_closures dest)
    (fun q1 h ->
      let wit = { dest; head = bufs.(h) } in
      iter_live rule all_live h (fun w -> emit q1 w wit))

(* Kahn's pass over the adjacency directly (no frozen CSR): [Some rank],
   rank.(v) the position of [v] in a topological order, when the graph is
   acyclic.  It decides a cold build's [is_acyclic] and renews a
   session's certificate. *)
let topo_rank g =
  let n = Digraph.num_vertices g in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    Digraph.iter_succ (fun w -> indeg.(w) <- indeg.(w) + 1) g v
  done;
  let order = Array.make n 0 in
  let filled = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      order.(!filled) <- v;
      incr filled
    end
  done;
  let head = ref 0 in
  while !head < !filled do
    let v = order.(!head) in
    incr head;
    Digraph.iter_succ
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          order.(!filled) <- w;
          incr filled
        end)
      g v
  done;
  if !filled < n then None
  else begin
    (* every in-degree is back at 0: the array takes the ranks *)
    Array.iteri (fun i v -> indeg.(v) <- i) order;
    Some indeg
  end

let kahn_acyclic g () = Option.is_some (topo_rank g)

(* The reference recorder's witness cell.  Witness lists are capped; the
   insertion count rides along so the cap check is O(1) instead of an
   O(cap) List.length per recorded edge, and [cut] records an emission
   past the cap. *)
type wcell = { mutable count : int; mutable ws : witness list; mutable cut : bool }

(* The reference recorder: the witness cell, found through the (q1, q2)
   index in O(1), doubles as the duplicate-edge check, so only the first
   witness of an edge touches the adjacency structure.  Tests hold the
   edge pass and the derived witnesses to it. *)
let replay ?(witness_cap = 32) space f =
  let n = State_space.num_buffers space in
  let graph = Digraph.create n in
  let cells = Hashtbl.create 1024 in
  f (fun q1 q2 w ->
      let key = (q1 * n) + q2 in
      match Hashtbl.find_opt cells key with
      | Some cell ->
        if cell.count < witness_cap then begin
          cell.ws <- w :: cell.ws;
          cell.count <- cell.count + 1
        end
        else begin
          cell.cut <- true;
          Obs.count "bwg.witnesses.capped" 1
        end
      | None ->
        Hashtbl.add cells key { count = 1; ws = [ w ]; cut = false };
        Digraph.unsafe_add_edge graph q1 q2);
  let witnesses q1 q2 =
    match Hashtbl.find_opt cells ((q1 * n) + q2) with
    | Some cell -> (List.rev cell.ws, not cell.cut)
    | None -> ([], true)
  in
  {
    space;
    graph;
    witnesses;
    acyclic = kahn_acyclic graph;
    unconnected = (fun () -> State_space.waitless_states space);
    lender = None;
  }

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

(* Capture every destination's groups, over the pool with [domains] > 1
   (each worker writes only its own destinations' slots, and the pool's
   join publishes them), then one serial edge pass: the result does not
   depend on [domains], and every Obs counter on the way is a
   per-destination sum or the pass's own. *)
let build ?(witness_cap = 32) ?(indirect = true) ?(domains = 1)
    ?(dense_closures = false) space =
  Obs.span "bwg.build" @@ fun () ->
  (* the reference recorder keeps an edge's first witness at any cap *)
  let witness_cap = max 1 witness_cap in
  let num_nodes = State_space.num_nodes space in
  let wormhole = indirect && Net.switching (State_space.net space) = Net.Wormhole in
  let live = Array.make num_nodes all_live in
  let groups = Array.make num_nodes no_groups in
  each_dest ~domains num_nodes (fun d ->
      groups.(d) <- capture space ~wormhole ~dense_closures d);
  let graph = Digraph.create (State_space.num_buffers space) in
  Obs.span "bwg.bucket" (fun () ->
      let emissions, capped, _ = edge_pass ~witness_cap graph space groups live in
      Obs.count "bwg.emissions" emissions;
      if capped > 0 then Obs.count "bwg.witnesses.capped" capped);
  (* only the full BWG reports its size: a BWG' of the same instance
     would overwrite the figure the report prints *)
  Obs.gauge "bwg.vertices" (float_of_int (State_space.num_buffers space));
  Obs.gauge "bwg.edges" (float_of_int (Digraph.num_edges graph));
  {
    space;
    graph;
    witnesses = derive ~witness_cap space groups live;
    acyclic = kahn_acyclic graph;
    unconnected = (fun () -> State_space.waitless_states space);
    lender = None;
  }

let is_acyclic t = t.acyclic ()

(* Only the Theorem-1 certificate needs a materialized order; freeze a
   transient CSR so the output is byte-identical to the historical frozen
   path, and let it be collected immediately after. *)
let topological_order t = Traversal.topological_sort_csr (Digraph.freeze t.graph)

(* The cycle queries run on the adjacency itself, read in place: the BWG
   is never frozen into a second full CSR copy, which matters once the
   graph has 10^5 vertices. *)
let fold_cycles ?limits t f init =
  Cycles.fold_rows ?limits ~n:(Digraph.num_vertices t.graph)
    ~iter_succ:(fun q1 f -> Digraph.iter_succ f t.graph q1)
    f init

let cycles ?limits t =
  let cs, exhaustive =
    fold_cycles ?limits t (fun p cs -> Cycles.Continue (Cycles.path_to_list p :: cs)) []
  in
  (List.rev cs, exhaustive)

let unconnected_states t = t.unconnected ()

let is_wait_connected t = unconnected_states t = []

let to_dot t =
  let net = State_space.net t.space in
  Dot.to_string ~name:"bwg"
    ~vertex_label:(fun v -> Net.describe_buffer net v)
    t.graph

(* A session keeps one BWG' up to date under wait-entry removals and
   restorations and under slice replacements (DESIGN.md §9).

   With routes fixed, a destination's emission sequence under any subset
   of its waiting rule is its groups under the full rule with each head's
   waits narrowed to its live entries (a head whose entries are all
   removed emits nothing), so the closures run once per destination, on
   the first read.  The session keeps those groups and, per edge, the
   number of live emissions, keyed q1 * num_buffers + q2: the edge
   exists while its count is positive.  A changed entry (head, dest,
   target) moves by one the count of q1 -> target for each of [dest]'s
   groups headed by [head]; a read applies the changes noted since the
   last one.  No witness list is stored: a read derives an edge's from
   the groups ([derive], as a cold build does).  Edges enter the
   adjacency in cold order on the first read; later ones append, so rows
   may drift from it, which nothing that decides a verdict reads
   (DESIGN.md §9). *)
module Session = struct
  type bwg = t

  type t = {
    mutable space : State_space.t;
    witness_cap : int;
    domains : int;
    live : Bytes.t array;
        (* per dest: a flag per entry of its wait rows, or [all_live]
           until one of its entries first changes *)
    groups : groups array; (* per dest, from the first read on *)
    mutable captured : bool;
    mutable counts : Count_table.t; (* q1 * num_buffers + q2 -> live emissions *)
    graph : Digraph.t;
    mutable zeroed : int list; (* keys whose count reached 0 since the last sweep *)
    mutable rank : int array option; (* a valid topological rank, if known *)
    changed : (int * int * int) list array;
        (* per dest: (local state, target, +1 or -1) since the last read,
           newest first *)
    mutable dirty : int list; (* the destinations with changes *)
    mutable moves : int; (* count moves since the last flush to bwg.session.moves *)
  }

  type lender += Lent of t

  let create ?(witness_cap = 32) ?(domains = 1) space =
    let n = State_space.num_nodes space in
    {
      space;
      witness_cap = max 1 witness_cap;
      domains;
      live = Array.make n all_live;
      groups = Array.make n no_groups;
      captured = false;
      counts = Count_table.create 0;
      graph = Digraph.create (State_space.num_buffers space);
      zeroed = [];
      rank = None;
      changed = Array.make n [];
      dirty = [];
      moves = 0;
    }

  let space s = s.space
  let find s ~buf ~dest = State_space.index s.space ~buf ~dest

  (* destination [d]'s live entries of local state [i], in rule order *)
  let live_list s d i =
    let acc = ref [] in
    iter_live (wait_rows s.space d) s.live.(d) i (fun w -> acc := w :: !acc);
    List.rev !acc

  (* the first entry of destination [d]'s row [i] that is [target] and
     whose liveness is [live], or -1 *)
  let entry s d i target ~live =
    let { State_space.first; items } = wait_rows s.space d and flags = s.live.(d) in
    let p = ref first.(i) and found = ref (-1) in
    while !found < 0 && !p < first.(i + 1) do
      if items.(!p) = target && live_at flags !p = live then found := !p;
      incr p
    done;
    !found

  let is_live s ~buf ~dest target =
    let i = find s ~buf ~dest in
    i < 0 || entry s dest i target ~live:true >= 0 || entry s dest i target ~live:false < 0

  (* Flip the first entry [target] of a reachable state whose liveness
     is [~live] (rule order, so with a repeated entry a removal takes its
     first live copy and a restoration its first removed one), noting the
     change once there are counts to move. *)
  let change s ~buf ~dest target ~live what =
    let i = find s ~buf ~dest in
    if i < 0 then invalid_arg ("Bwg.Session." ^ what ^ ": unreachable state");
    let p = entry s dest i target ~live in
    if p < 0 then
      invalid_arg
        ("Bwg.Session." ^ what
        ^ if live then ": not a live wait entry" else ": not a removed wait entry");
    if Bytes.length s.live.(dest) = 0 then
      s.live.(dest) <- Bytes.make (Array.length (wait_rows s.space dest).State_space.items) '\001';
    Bytes.set s.live.(dest) p (if live then '\000' else '\001');
    if s.captured then begin
      if s.changed.(dest) = [] then s.dirty <- dest :: s.dirty;
      s.changed.(dest) <- (i, target, if live then -1 else 1) :: s.changed.(dest)
    end

  let remove s ~buf ~dest target = change s ~buf ~dest target ~live:true "remove"
  let restore s ~buf ~dest target = change s ~buf ~dest target ~live:false "restore"

  (* One more or one fewer live emission of q1 -> q2.  An edge enters the
     adjacency when its count leaves 0, checked against the rank, and
     leaves at the next sweep if its count is 0 then.  A count never goes
     below 0: each group's own share of it does not. *)
  let bump s q1 q2 delta =
    s.moves <- s.moves + 1;
    let key = (q1 * Digraph.num_vertices s.graph) + q2 in
    let before = Count_table.add s.counts key delta in
    if before = Count_table.absent then begin
      Digraph.unsafe_add_edge s.graph q1 q2;
      match s.rank with Some r when r.(q1) >= r.(q2) -> s.rank <- None | _ -> ()
    end
    else if before + delta = 0 then s.zeroed <- key :: s.zeroed

  let sweep s =
    let nb = Digraph.num_vertices s.graph in
    List.iter
      (fun key ->
        if Count_table.find s.counts key = 0 then begin
          Count_table.remove s.counts key;
          Digraph.remove_edge s.graph (key / nb) (key mod nb)
        end)
      s.zeroed;
    s.zeroed <- []

  (* [delta] on every live emission of destination [d] *)
  let bump_dest s d delta =
    let rule = wait_rows s.space d and flags = s.live.(d) in
    iter_dest_groups s.space d s.groups.(d) (fun q1 h ->
        iter_live rule flags h (fun w -> bump s q1 w delta))

  (* [a] less one occurrence of each entry of [b] *)
  let minus a b =
    let rec drop w = function
      | [] -> None
      | x :: rest -> if x = w then Some rest else Option.map (List.cons x) (drop w rest)
    in
    let rec go acc b = function
      | [] -> List.rev acc
      | w :: a -> (
        match drop w b with Some b -> go acc b a | None -> go (w :: acc) b a)
    in
    go [] b a

  (* destination [d]'s live entries of local state [h] are row [h] of
     [rule], entry for entry *)
  let same_live s d h (rule : State_space.rows) =
    let { State_space.first; items } = wait_rows s.space d and flags = s.live.(d) in
    let q = ref rule.State_space.first.(h) and same = ref true in
    for p = first.(h) to first.(h + 1) - 1 do
      if !same && live_at flags p then
        if !q < rule.State_space.first.(h + 1) && rule.State_space.items.(!q) = items.(p)
        then incr q
        else same := false
    done;
    !same && !q = rule.State_space.first.(h + 1)

  (* the entry changes that take destination [d]'s live waits to [rule],
     as [apply_changes] takes them: the entries that leave a state's
     waits and those that enter *)
  let rule_changes s d (rule : State_space.rows) =
    let acc = ref [] in
    for h = 0 to Array.length rule.State_space.first - 2 do
      if not (same_live s d h rule) then begin
        let o = live_list s d h in
        let n = State_space.row rule h in
        List.iter (fun w -> acc := (h, w, -1) :: !acc) (minus o n);
        List.iter (fun w -> acc := (h, w, 1) :: !acc) (minus n o)
      end
    done;
    !acc

  let flush_moves s =
    Obs.count "bwg.session.moves" s.moves;
    s.moves <- 0

  (* destination [d]'s [changes] (local state, target, +1 or -1; newest
     first), oldest first, on every group their head heads *)
  let apply_changes s d changes =
    let by_head = Hashtbl.create 8 in
    List.iter
      (fun (h, t, delta) ->
        let later = Option.value (Hashtbl.find_opt by_head h) ~default:[] in
        Hashtbl.replace by_head h ((t, delta) :: later))
      changes;
    iter_dest_groups s.space d s.groups.(d) (fun q1 h ->
        match Hashtbl.find_opt by_head h with
        | Some ts -> List.iter (fun (t, delta) -> bump s q1 t delta) ts
        | None -> ())

  (* destination [d]'s groups under its rule: the closures *)
  let capture s d =
    capture s.space
      ~wormhole:(Net.switching (State_space.net s.space) = Net.Wormhole)
      ~dense_closures:false d

  (* Bring the counts up to the live sets.  The first read captures every
     destination's groups (over the pool with [domains] > 1) and runs the
     edge pass over the live sets, so edges enter the adjacency in cold
     order; later reads apply the noted changes. *)
  let sync s =
    let rederived =
      if not s.captured then begin
        let n = Array.length s.groups in
        each_dest ~domains:s.domains n (fun d -> s.groups.(d) <- capture s d);
        s.captured <- true;
        Obs.span "bwg.patch" (fun () ->
            let _, _, iter_counts =
              edge_pass ~witness_cap:s.witness_cap s.graph s.space s.groups s.live
            in
            let nb = Digraph.num_vertices s.graph in
            s.counts <- Count_table.create (Digraph.num_edges s.graph);
            iter_counts (fun q1 q2 c ->
                ignore (Count_table.add s.counts ((q1 * nb) + q2) c : int)));
        n
      end
      else begin
        let dirty = List.sort Int.compare s.dirty in
        Obs.span "bwg.patch" (fun () ->
            List.iter (fun d -> apply_changes s d s.changed.(d)) dirty;
            sweep s);
        flush_moves s;
        List.iter (fun d -> s.changed.(d) <- []) dirty;
        s.dirty <- [];
        List.length dirty
      end
    in
    Obs.count "bwg.session.rederived" rederived

  (* a non-edge has no emission to look for *)
  let derive s q1 q2 =
    let key = (q1 * Digraph.num_vertices s.graph) + q2 in
    if Count_table.find s.counts key = Count_table.absent then ([], true)
    else derive ~witness_cap:s.witness_cap s.space s.groups s.live q1 q2

  let emitters s q1 q2 =
    if not s.captured then sync s;
    let acc = ref [] in
    walk_emitters s.space s.groups s.live q1 q2 (fun dest head _ ->
        acc := { dest; head } :: !acc;
        true);
    List.rev !acc

  let rank s =
    sync s;
    if s.rank = None then s.rank <- topo_rank s.graph;
    s.rank

  (* the reachable states with no live entry, in [iter_reachable] order *)
  let unconnected s () =
    let nn = State_space.num_nodes s.space in
    let keys = ref [] in
    for d = 0 to nn - 1 do
      let rule = wait_rows s.space d in
      Array.iteri
        (fun i buf ->
          let live = ref false in
          iter_live rule s.live.(d) i (fun _ -> live := true);
          if not (!live || State_space.arrived s.space ~buf ~dest:d) then
            keys := ((buf * nn) + d) :: !keys)
        (State_space.dest_view s.space ~dest:d).State_space.view_bufs
    done;
    List.map (fun k -> (k / nn, k mod nn)) (List.sort Int.compare !keys)

  let bwg s : bwg =
    sync s;
    {
      space = s.space;
      graph = s.graph;
      witnesses = derive s;
      acyclic = (fun () -> Option.is_some (rank s));
      unconnected = unconnected s;
      lender = Some (Lent s);
    }

  let of_view (b : bwg) = match b.lender with Some (Lent s) -> Some s | _ -> None

  (* Incr's quick-path rule: a destination keeps its groups when its
     routes, and with them its states, move graph and closures, are
     unchanged and no head with an empty rule gains entries (its groups
     would have to be inserted).  Kept groups emit the new rule's waits,
     a newly emptied head nothing. *)
  let keeps_groups (oldv : State_space.dest_view) (newv : State_space.dest_view) =
    let waits (v : State_space.dest_view) h =
      v.State_space.view_wts.State_space.first.(h)
      < v.State_space.view_wts.State_space.first.(h + 1)
    in
    oldv.State_space.view_bufs = newv.State_space.view_bufs
    && oldv.State_space.view_outs = newv.State_space.view_outs
    &&
    let keep = ref true in
    for h = 0 to Array.length oldv.State_space.view_bufs - 1 do
      if waits newv h && not (waits oldv h) then keep := false
    done;
    !keep

  (* Old emissions leave under the old space and new ones enter under
     the new; a kept destination's groups are the same in both, so only
     its changed heads move, under the old. *)
  let update s space ~dests =
    let dests = List.sort_uniq Int.compare dests in
    let plan =
      List.map
        (fun d ->
          let keep =
            s.captured
            && keeps_groups (State_space.dest_view s.space ~dest:d)
                 (State_space.dest_view space ~dest:d)
          in
          (d, keep))
        dests
    in
    if s.captured then begin
      sync s;
      Obs.span "bwg.patch" (fun () ->
          List.iter
            (fun (d, keep) ->
              if not keep then bump_dest s d (-1)
              else
                match rule_changes s d (wait_rows space d) with
                | [] -> ()
                | changes -> apply_changes s d changes)
            plan)
    end;
    s.space <- space;
    List.iter
      (fun (d, keep) ->
        s.live.(d) <- all_live;
        if s.captured && not keep then s.groups.(d) <- capture s d)
      plan;
    if s.captured then begin
      Obs.span "bwg.patch" (fun () ->
          List.iter (fun (d, keep) -> if not keep then bump_dest s d 1) plan;
          sweep s);
      flush_moves s
    end;
    List.length (List.filter snd plan)
end
