(** Enumeration of elementary cycles (Johnson's algorithm) with caps.

    The BWG cycle classifier needs the actual cycles, not just their
    existence, and the paper notes that every general deadlock-freedom
    procedure is worst-case exponential; the caps keep enumeration bounded
    on adversarial inputs while remaining exhaustive on the networks the
    test-suite and benches exercise. *)

type limits = {
  max_cycles : int;  (** stop after this many cycles *)
  max_length : int;  (** ignore cycles longer than this many vertices *)
}

val default_limits : limits
(** 10_000 cycles, length 64. *)

val enumerate : ?limits:limits -> Digraph.t -> int list list
(** All elementary cycles up to the caps.  Each cycle is the vertex list
    [v1; ...; vk] with edges [vi -> vi+1] and [vk -> v1]; self loops give
    singletons.  Cycles are reported rooted at their smallest vertex. *)

val enumerate_checked : ?limits:limits -> Digraph.t -> int list list * bool
(** Like {!enumerate}, also reporting whether enumeration was exhaustive
    ([false] when the cycle cap stopped it early; length-capped cycles are
    silently skipped either way). *)

val enumerate_checked_rows :
  ?limits:limits -> n:int -> row:(int -> int array) -> unit -> int list list * bool
(** Enumerate over an *implicit* graph: [row v] must return the successors
    of [v] as a strictly ascending, duplicate-free array, and must be
    deterministic (it is called more than once per vertex).  Equivalent to
    building the relation as a {!Digraph.t} and calling
    {!enumerate_checked} — same cycles, same order — but only the strongly
    connected cores are ever materialized, so a BWG with 10^5 vertices and
    a tiny cyclic core scans in O(V + E) time and O(core) extra space. *)

type 'a step = Continue of 'a | Stop of 'a

val fold_rows :
  ?limits:limits ->
  n:int ->
  row:(int -> int array) ->
  (int list -> 'a -> 'a step) ->
  'a ->
  'a * bool
(** The streaming enumerator every function above is built on: hands the
    cycles {!enumerate_checked_rows} lists, in the same order, to [f] one
    at a time as the search closes them.  [f] returns [Continue acc] to
    go on or [Stop acc] to end the enumeration at that cycle, skipping the
    rest of the search, so stopping after k cycles has seen exactly the
    first k.  The flag is [false] exactly when the cycle cap ended the
    enumeration (as in {!enumerate_checked_rows}); a [Stop] leaves it
    [true]. *)
