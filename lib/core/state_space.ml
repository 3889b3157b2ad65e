open Dfr_network
open Dfr_routing
module Obs = Dfr_obs.Obs
module Csr = Dfr_graph.Csr

(* One destination's reachable states, stored compactly: [bufs] is the
   ascending list of buffers some [dest]-bound packet can occupy, and the
   parallel arrays carry the per-state routing relation.  A full-mesh or
   dragonfly destination touches O(nodes) of the network's B buffers, so
   this is what keeps the table at O(states) instead of O(B * N) — the
   difference between megabytes and gigabytes at 10^5 buffers.  [moves]
   is the same relation as a k-vertex CSR over the slice's own positions
   (vertex i is [bufs.(i)]), the destination's one move graph. *)
type slice = {
  bufs : int array;
  outs : int list array;
  wts : int list array;
  rdc : int list array option;
  moves : Csr.t;
}

type t = {
  net : Net.t;
  algo : Algo.t;
  num_buffers : int;
  num_nodes : int;
  slices : slice array; (* per dest *)
}

let net t = t.net
let algo t = t.algo
let num_buffers t = t.num_buffers
let num_nodes t = t.num_nodes

(* position of [buf] in [s.bufs], or -1 *)
let slice_find s buf =
  let lo = ref 0 and hi = ref (Array.length s.bufs) in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let b = s.bufs.(mid) in
    if b = buf then found := mid else if b < buf then lo := mid + 1 else hi := mid
  done;
  !found

let index t ~buf ~dest = slice_find t.slices.(dest) buf
let is_reachable t ~buf ~dest = index t ~buf ~dest >= 0
let arrived t ~buf ~dest = Buf.head_node (Net.buffer t.net buf) = dest

(* [field] of the state (buf, dest), or [[]] when it is unreachable *)
let lookup field t ~buf ~dest =
  let s = t.slices.(dest) in
  let i = slice_find s buf in
  if i >= 0 then (field s).(i) else []

let outputs = lookup (fun s -> s.outs)
let waits = lookup (fun s -> s.wts)

let reduced_waits t =
  if Array.exists (fun s -> s.rdc <> None) t.slices then
    Some
      (fun ~buf ~dest ->
        let s = t.slices.(dest) in
        match s.rdc with
        | None -> []
        | Some arr ->
          let i = slice_find s buf in
          if i >= 0 then arr.(i) else [])
  else None

(* The move graph over a slice's positions: [local] maps each of the
   slice's buffers to its position.  Every output of a reachable state is
   itself reachable, and positions are a monotone renumbering of buffers,
   so sorting a row by position sorts it by buffer. *)
let local_moves ~local outs =
  let row os = List.sort_uniq Int.compare (List.map (Array.get local) os) in
  let rows = Array.map (fun os -> Array.of_list (row os)) outs in
  let offsets = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun i row -> offsets.(i + 1) <- offsets.(i) + Array.length row) rows;
  Csr.make ~n:(Array.length rows) ~offsets ~targets:(Array.concat (Array.to_list rows))

(* One domain's BFS scratch, reused across destinations and builds and
   grown to the largest network seen.  The BFS for a destination only
   ever revisits its own states, so size-B arrays that are clean between
   destinations are all the working memory it needs: [local.(buf)] is -1
   for a buffer not yet seen, and once the BFS is done the buffer's
   position in the slice, which [local_moves] reads; [queue] holds the
   seen buffers in visit order, and [outs], [wts] and [red] a routed
   state's outputs, waits and hint ([red] only for an algorithm with a
   hint), [[]] for any other buffer. *)
type bfs = {
  mutable local : int array;
  mutable queue : int array;
  mutable outs : int list array;
  mutable wts : int list array;
  mutable red : int list array;
}

let bfs =
  Dfr_util.Per_domain.make (fun () ->
      { local = [||]; queue = [||]; outs = [||]; wts = [||]; red = [||] })

let fit_bfs sc ~num_buffers ~hint =
  if Array.length sc.local < num_buffers then begin
    sc.local <- Array.make num_buffers (-1);
    sc.queue <- Array.make num_buffers 0;
    sc.outs <- Array.make num_buffers [];
    sc.wts <- Array.make num_buffers []
  end;
  if hint && Array.length sc.red < num_buffers then
    sc.red <- Array.make (Array.length sc.local) []

(* One destination's slice: BFS from the injection buffers, over the
   domain's scratch [sc].  Shared with [with_updated_dests], which re-runs
   it for just the dirty destinations — a slice is a pure function of
   (net, algo, dest), so a rebuilt slice is identical to what a cold
   build produces.  Every buffer the BFS saw gets its scratch entries
   back when it ends, also when a routing function raises.

   Every state the BFS routes is checked against the routing contract
   ([Algo.state_problems]) on the raw route list, waits and hint it reads
   anyway, so only reachable states are validated — the states the BWG
   and Theorems 1–3 read.  The destination's problems come back beside
   the slice, as (buffer, problems) pairs. *)
let build_slice net algo ~num_nodes ~hint sc dest =
  let local = sc.local and queue = sc.queue in
  let outs_of = sc.outs and wts_of = sc.wts and red_of = sc.red in
  let tail = ref 0 in
  let clean () =
    for j = 0 to !tail - 1 do
      let b = queue.(j) in
      local.(b) <- -1;
      outs_of.(b) <- [];
      wts_of.(b) <- [];
      if hint then red_of.(b) <- []
    done
  in
  Fun.protect ~finally:clean @@ fun () ->
  let problems = ref [] in
  let visit buf =
    if local.(buf) < 0 then begin
      local.(buf) <- 0;
      queue.(!tail) <- buf;
      incr tail
    end
  in
  for src = 0 to num_nodes - 1 do
    if src <> dest then visit (Buf.id (Net.injection net src))
  done;
  let head = ref 0 in
  while !head < !tail do
    let buf = queue.(!head) in
    incr head;
    let b = Net.buffer net buf in
    if Buf.head_node b <> dest then begin
      let route = algo.Algo.route net b ~dest in
      let waits = algo.Algo.waits net b ~dest in
      let reduced_waits =
        Option.map (fun rw -> rw net b ~dest) algo.Algo.reduced_waits
      in
      (match
         Algo.state_problems net b ~dest ~outputs:route ~waits ~reduced_waits
       with
      | [] -> ()
      | ps -> problems := (buf, ps) :: !problems);
      let outs = List.filter (fun o -> Buf.is_transit (Net.buffer net o)) route in
      outs_of.(buf) <- outs;
      wts_of.(buf) <- waits;
      (match reduced_waits with Some rw -> red_of.(buf) <- rw | None -> ());
      List.iter visit outs
    end
  done;
  let bufs = Array.sub queue 0 !tail in
  (* a merge sort: [Array.sort]'s heap sort is the slower one here *)
  Array.stable_sort Int.compare bufs;
  Array.iteri (fun i b -> local.(b) <- i) bufs;
  let outs = Array.map (fun b -> outs_of.(b)) bufs in
  let slice =
    {
      bufs;
      outs;
      wts = Array.map (fun b -> wts_of.(b)) bufs;
      rdc = (if hint then Some (Array.map (fun b -> red_of.(b)) bufs) else None);
      moves = local_moves ~local outs;
    }
  in
  (slice, !problems)

(* [build_slice] for each listed destination in turn, on this domain's
   scratch, filling [into] and [problems] *)
let build_slices net algo ~num_buffers ~num_nodes ~into ~problems dests =
  let hint = algo.Algo.reduced_waits <> None in
  Dfr_util.Per_domain.use bfs @@ fun sc ->
  fit_bfs sc ~num_buffers ~hint;
  List.iter
    (fun dest ->
      let slice, ps = build_slice net algo ~num_nodes ~hint sc dest in
      into.(dest) <- slice;
      problems.(dest) <- ps)
    dests

(* One rejection for the whole build, raised after every destination's
   BFS: the states sort by (buffer, destination), so the problems keep
   [Algo.validate]'s order and the message is the same whatever chunking
   [--domains] chose. *)
let refuse_malformed ~num_nodes problems =
  let keyed = ref [] in
  Array.iteri
    (fun dest ps ->
      List.iter (fun (buf, p) -> keyed := ((buf * num_nodes) + dest, p) :: !keyed) ps)
    problems;
  if !keyed <> [] then
    invalid_arg
      ("State_space.build: "
      ^ String.concat "; "
          (List.concat_map snd
             (List.sort (fun ((a : int), _) (b, _) -> compare a b) !keyed)))

let num_states t = Array.fold_left (fun acc s -> acc + Array.length s.bufs) 0 t.slices

let build ?(domains = 1) net algo =
  Obs.span "space.build" @@ fun () ->
  let num_buffers = Net.num_buffers net in
  let num_nodes = Net.num_nodes net in
  (* Destinations partition across domains: each worker owns a contiguous
     chunk and writes only its own slices, so the filled array is
     identical whatever the chunking.  The states counter is a sum of
     per-slice sizes, hence domain-count-invariant. *)
  let slices =
    Array.make num_nodes
      { bufs = [||]; outs = [||]; wts = [||]; rdc = None; moves = Csr.of_edges 0 [] }
  in
  let problems = Array.make num_nodes [] in
  let n_dom = max 1 (min domains num_nodes) in
  Dfr_util.Domain_pool.parallel ~domains:n_dom (fun k ->
      let start, stop = Dfr_util.Domain_pool.chunk ~n:num_nodes ~domains:n_dom k in
      build_slices net algo ~num_buffers ~num_nodes ~into:slices ~problems
        (List.init (stop - start) (fun i -> start + i)));
  refuse_malformed ~num_nodes problems;
  let t = { net; algo; num_buffers; num_nodes; slices } in
  Obs.count "space.states" (num_states t);
  t

(* The (buf ascending, dest ascending) order every downstream state list
   is reported in, by one counting pass: bucket the states by buffer,
   filling the buckets destination by destination, so each bucket comes
   out sorted. *)
let iter_reachable t f =
  let nb = t.num_buffers in
  let next = Array.make (nb + 1) 0 in
  Array.iter
    (fun s -> Array.iter (fun buf -> next.(buf + 1) <- next.(buf + 1) + 1) s.bufs)
    t.slices;
  for b = 1 to nb do
    next.(b) <- next.(b) + next.(b - 1)
  done;
  let dests = Array.make next.(nb) 0 in
  Array.iteri
    (fun dest s ->
      Array.iter
        (fun buf ->
          dests.(next.(buf)) <- dest;
          next.(buf) <- next.(buf) + 1)
        s.bufs)
    t.slices;
  (* [next.(buf)] is now where buffer [buf + 1]'s bucket starts *)
  let i = ref 0 in
  for buf = 0 to nb - 1 do
    while !i < next.(buf) do
      f ~buf ~dest:dests.(!i);
      incr i
    done
  done

type dest_view = {
  view_bufs : int array;
  view_outs : int list array;
  view_wts : int list array;
  view_moves : Csr.t;
}

let dest_view t ~dest =
  let s = t.slices.(dest) in
  { view_bufs = s.bufs; view_outs = s.outs; view_wts = s.wts; view_moves = s.moves }

(* Rebuild only the named destinations' tables under a new algorithm,
   sharing everything else.  A destination's slice (move graph included) is a
   pure function of (net, algo restricted to that dest), so as long as the
   caller's dirty set covers every destination whose applicable rules
   changed — Diff.diff computes exactly that set for spec edits — the
   result is indistinguishable from a cold build of [algo], rejection
   included: the rebuilt destinations' reachable states are checked by
   the same BFS, and the clean ones were checked when they were built. *)
let with_updated_dests t algo ~dests =
  Obs.span "space.update" @@ fun () ->
  let dests = List.sort_uniq compare dests in
  List.iter
    (fun d ->
      if d < 0 || d >= t.num_nodes then
        invalid_arg "State_space.with_updated_dests: destination out of range")
    dests;
  let hint = algo.Algo.reduced_waits <> None in
  (* a hint cannot be introduced incrementally: the clean destinations'
     reduced tables were never computed *)
  if hint && Array.exists (fun s -> s.rdc = None) t.slices then
    invalid_arg
      "State_space.with_updated_dests: cannot introduce a reduced-waits hint";
  (* a hint the new algorithm no longer carries must not survive in the
     shared slices either, or [reduced_waits] would diverge from a cold
     build of [algo] *)
  let slices =
    if hint then Array.copy t.slices
    else Array.map (fun s -> if s.rdc = None then s else { s with rdc = None }) t.slices
  in
  if dests <> [] then Obs.count "space.dest.rebuilds" (List.length dests);
  let problems = Array.make t.num_nodes [] in
  build_slices t.net algo ~num_buffers:t.num_buffers ~num_nodes:t.num_nodes
    ~into:slices ~problems dests;
  refuse_malformed ~num_nodes:t.num_nodes problems;
  { t with algo; slices }

(* Filter scan over the reachable states, chunked by destination over
   the shared pool (a destination's states never depend on another's);
   a final sort on the (buf, dest) key puts the survivors in
   [iter_reachable] order — they are few (usually none), so the sort
   costs nothing and the output is domain-count-invariant. *)
let filter_reachable ?(domains = 1) t pred =
  let per = Array.make t.num_nodes [] in
  let n_dom = max 1 (min domains t.num_nodes) in
  Dfr_util.Domain_pool.parallel ~domains:n_dom (fun k ->
      let lo, hi = Dfr_util.Domain_pool.chunk ~n:t.num_nodes ~domains:n_dom k in
      for dest = lo to hi - 1 do
        let acc = ref [] in
        Array.iter
          (fun buf -> if pred ~buf ~dest then acc := (buf, dest) :: !acc)
          t.slices.(dest).bufs;
        per.(dest) <- List.rev !acc
      done);
  List.sort
    (fun (b1, d1) (b2, d2) ->
      compare ((b1 * t.num_nodes) + d1) ((b2 * t.num_nodes) + d2))
    (List.concat (Array.to_list per))

let stuck_states ?domains t =
  filter_reachable ?domains t (fun ~buf ~dest ->
      (not (arrived t ~buf ~dest)) && outputs t ~buf ~dest = [])

let describe_state t (buf, dest) =
  Printf.sprintf "%s->n%d" (Net.describe_buffer t.net buf) dest
