(** Classification of BWG cycles into True Cycles and False Resource
    Cycles (§5 of the paper).

    A cycle is {e True} when a set of packets can create every waiting
    dependency on it without any buffer being occupied by two packets at
    once; the classifier searches for such a set directly, so a [True_cycle]
    verdict comes with the witness packets — which are exactly the deadlock
    configuration of Theorem 2's necessity proof.  A cycle whose every
    realization needs a simultaneously shared buffer is a {e False Resource
    Cycle} and can be ignored.

    A self-loop realized by a single packet is the paper's [n = 1] deadlock:
    the packet waits on a buffer it occupies itself (Duato's incoherent
    example, Figure 2).

    The search is worst-case exponential — as the paper notes every general
    procedure is — so verdicts carry an [exhaustive] flag; a
    non-exhaustive [False_resource_cycle] means "no realization found
    within the caps", not a proof. *)

type packet = {
  dest : int;
  path : int list;  (** occupied buffers, tail first, header's buffer last *)
  waits_for : int;
}

type verdict =
  | True_cycle of packet list
      (** one packet per cycle edge, in cycle order: packet [k] occupies a
          path starting at cycle vertex [k] and waits for vertex [k+1]
          (wrapping), so printers can zip packets with edges directly *)
  | False_resource_cycle of { exhaustive : bool }

type limits = {
  max_paths_per_edge : int;  (** candidate occupied paths per cycle edge *)
  max_path_length : int;
  max_assignments : int;  (** backtracking budget *)
}

val default_limits : limits
(** 64 paths per edge, length 24, 100_000 assignments. *)

val simple_paths :
  limits:limits ->
  Dfr_graph.Csr.t ->
  start:int ->
  target:int ->
  int list list * bool
(** Simple paths from [start] to [target] (internal building block,
    exposed for the boundary tests).  At most [max_paths_per_edge] paths
    are returned; the boolean is false only when enumeration actually
    truncated something — a path beyond the cap exists, or an extension
    was cut by [max_path_length] — never merely because the cap was
    reached exactly. *)

val classify : ?limits:limits -> Bwg.t -> int list -> verdict
(** [classify bwg cycle] where [cycle] is a vertex list as returned by
    {!Bwg.cycles}.  Each edge's candidates come from its witness list
    ({!Bwg.witnesses}), so a [False_resource_cycle] is exhaustive only
    when no edge's list was cut by the BWG's witness cap, no path
    enumeration was cut by [limits], and the assignment search ran to
    its end: a True Cycle may need a witness past the cap.  Raises
    [Invalid_argument] if some consecutive pair is not a BWG edge. *)

type scan = {
  found : (int list * packet list) option;
      (** the first cycle in the list that classifies as True, with its
          witness *)
  classified : int;
      (** the classifications the answer rests on: the True Cycle's index
          + 1, or every cycle of the list *)
  uncertain : bool;
      (** some cycle before the True one (or any, when none is True)
          classified False only within the caps *)
}

val first_true_cycle :
  ?limits:limits -> ?domains:int -> Bwg.t -> int array array -> scan
(** The one True-Cycle scan: classifies the cycles in array order and
    stops at the first True one, building a vertex list only for the
    cycles it classifies.  [domains] (default 1) fans the
    classifications out over that many workers, each under a
    [checker.classify.worker] span; they only read [cycles], and the
    result is identical at every [domains]. *)

type full_scan = {
  enumerated : int;
      (** cycles the enumeration handed over: all of them up to the caps
          for {!shortest_first_scan}, those up to the first True one for
          {!streaming_scan} *)
  cycles_exhaustive : bool;  (** as {!Bwg.fold_cycles} reports it *)
  scan : scan;
}

val shortest_first_scan :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?limits:limits ->
  ?domains:int ->
  obs:string ->
  Bwg.t ->
  full_scan
(** The eager scan of a specific-wait {!Checker.decide} and of a
    shortest-first {!Reduction.true_cycle_status}: every cycle up to
    [cycle_limits], each stored once as an [int array] of its length,
    then {!first_true_cycle} over them shortest first (a stable counting
    sort: equal lengths in enumeration order).  Short cycles are the
    likeliest True ones, the cheapest to classify, and their witnesses
    name the fewest wait entries.  With [obs] = ["p"], the enumeration
    runs under a [p.cycle-scan] span and the classification under
    [p.classify], and the counters [p.cycles.enumerated] and
    [p.cycles.classified] record the stored and the classified cycles. *)

val streaming_scan :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?limits:limits ->
  obs:string ->
  Bwg.t ->
  full_scan
(** The scan of a multi-wait {!Checker.decide} and of every default
    {!Reduction.true_cycle_status} probe: each cycle is classified in
    enumeration order the moment {!Bwg.fold_cycles} closes it, and the
    enumeration ends at the first True Cycle, so no cycle is stored and
    [classified] equals [enumerated].  With no True Cycle it has seen
    every cycle up to [cycle_limits], and its answer is
    {!shortest_first_scan}'s: [found] is [None] for both, with the same
    counts and the same [uncertain].  With [obs] = ["p"], the stream runs
    under a [p.cycle-scan] span and each classification under a nested
    [p.classify] span (one zero-duration one when no cycle closes), and
    the counters [p.cycles.enumerated] and [p.cycles.classified] record
    the cycles it met. *)

val inconclusive : cycles_exhaustive:bool -> uncertain:bool -> string option
(** Why a scan that found no True Cycle proves nothing, or [None] when it
    proves there is none: a truncated enumeration outranks classification
    caps, since the missing cycles are the larger gap. *)

val pp_packet : Dfr_network.Net.t -> Format.formatter -> packet -> unit
