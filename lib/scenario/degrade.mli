(** Fault application: rewriting a checked instance around killed
    resources.

    Link, virtual-channel and buffer kills leave the network's buffer
    skeleton intact — they only shrink the routing relation, by filtering
    the killed buffer ids out of every route, waiting and reduced-waits
    set.  That is exactly the shape the incremental re-checker consumes:
    the degraded algorithm rides an {!Dfr_core.Incr} session with a dirty
    frontier of the destinations that could ever reach a killed buffer
    (an output list can mention a buffer only in states from which that
    buffer is reachable, so the frontier provably covers every changed
    slice).

    Node kills change the skeleton itself: the node and every channel
    touching it disappear and the survivors are renumbered.  Those take
    the cold path — {!Dfr_spec.Diff} calls the same situation
    [Incompatible] — on a rebuilt custom network whose algorithm
    translates buffer ids through the old/new correspondence. *)

open Dfr_network
open Dfr_routing
open Dfr_core

type t =
  | Filtered of {
      algo : Algo.t;  (** the baseline relation minus the killed buffers *)
      killed : int list;  (** killed buffer ids, ascending *)
      dirty : int list;
          (** destinations whose slice may differ — the {!Dfr_core.Incr}
              frontier: every dest that reaches a killed buffer in the
              {e baseline} space *)
    }
  | Rebuilt of {
      net : Net.t;  (** renumbered survivor network *)
      algo : Algo.t;
      killed_nodes : int list;  (** ascending *)
      killed : int list;  (** killed buffer ids of the {e old} network *)
      node_of_old : int array;  (** old node -> new node, [-1] if killed *)
    }

val apply : State_space.t -> Fault.fault list -> (t, string) result
(** Degrade the baseline instance by all the faults at once.  Any
    [Kill_node] forces the [Rebuilt] shape (and requires a channel-based
    network — wormhole or custom; SAF/VCT node buffers have no survivor
    renumbering story).  [Storm]s must have been expanded by
    {!Fault.expand} first. *)

val disconnections :
  State_space.t ->
  killed:int list ->
  dests:int list ->
  sources:int list ->
  (int * int list) list
(** For each destination, the source nodes whose injection buffer loses
    every path to an arrived buffer once all move edges touching a killed
    buffer are disabled — computed on the baseline's per-destination move
    graphs ({!State_space.dest_view}) with {!Dfr_graph.Reach}, so a
    destination costs O(its states + moves), not O(buffers).  Only
    baseline-reachable pairs are consulted (a pair unreachable before the
    fault is not fault-caused damage).  Destinations with no cut source
    are omitted; order follows [dests] / [sources]. *)
