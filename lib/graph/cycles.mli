(** Enumeration of elementary cycles (Johnson's algorithm) with caps.

    The BWG cycle classifier needs the actual cycles, not just their
    existence, and the paper notes that every general deadlock-freedom
    procedure is worst-case exponential; the caps keep enumeration bounded
    on adversarial inputs while remaining exhaustive on the networks the
    test-suite and benches exercise. *)

type limits = {
  max_cycles : int;  (** stop after this many cycles *)
  max_length : int;
      (** extend no path past this many vertices, so no longer cycle is
          reported; a cut makes the enumeration non-exhaustive *)
}

val default_limits : limits
(** 10_000 cycles, length 64. *)

val enumerate : ?limits:limits -> Digraph.t -> int list list
(** All elementary cycles up to the caps.  Each cycle is the vertex list
    [v1; ...; vk] with edges [vi -> vi+1] and [vk -> v1]; self loops give
    singletons.  Cycles are reported rooted at their smallest vertex. *)

val enumerate_checked : ?limits:limits -> Digraph.t -> int list list * bool
(** Like {!enumerate}, also reporting whether enumeration was exhaustive:
    [false] when the cycle cap stopped it early, or when the length cap
    cut a branch.  A cut vertex stays blocked as if its branch closed no
    cycle, which can also hide shorter cycles through it, so a cut
    enumeration has not seen every cycle of any length. *)

val enumerate_checked_rows :
  ?limits:limits -> n:int -> row:(int -> int array) -> unit -> int list list * bool
(** Enumerate over an *implicit* graph: [row v] must return the successors
    of [v] as a duplicate-free array, in any order, and must be
    deterministic (it is called more than once per vertex).  Equivalent to
    building the relation as a {!Digraph.t} and calling
    {!enumerate_checked} — same cycles, same order.  A copying fold over
    {!fold_rows}. *)

type 'a step = Continue of 'a | Stop of 'a

type path
(** A read-only view of the search's path when it closes a cycle: the
    cycle's vertices, root (its smallest vertex) first.  The engine
    rewrites it as the search goes on, so a view is valid only until the
    function it was handed to returns; copy what must outlive that. *)

val path_to_array : path -> int array
val path_to_list : path -> int list

val fold_rows :
  ?limits:limits ->
  n:int ->
  iter_succ:(int -> (int -> unit) -> unit) ->
  (path -> 'a -> 'a step) ->
  'a ->
  'a * bool
(** The one Johnson engine, over an implicit graph of [n] vertices:
    [iter_succ v f] calls [f] on each successor of [v], duplicate-free
    and in any order, the same ones on every call.  Each cycle goes to [f]
    as a {!path} the moment the search closes it, in the order of the
    classic whole-graph algorithm with ascending rows: roots ascend, and
    each root's cycles come in depth-first order over ascending
    successors.  [f] returns [Continue acc] to go on or [Stop acc] to end
    the enumeration at that cycle, skipping the rest of the search, so
    stopping after k cycles has seen exactly the first k.  The flag is
    [false] exactly when the cycle cap ended the enumeration or the
    length cap cut a branch before it ended (as in
    {!enumerate_checked}); a [Stop] leaves it [true] otherwise.  When it
    is [true] without a [Stop], every cycle of the graph was handed to
    [f].

    Space beyond the O(n) scan arrays is O(core): a trivial component's
    rows are read once and dropped, and only the cycle-capable components
    are read again, into one sub-CSR. *)
