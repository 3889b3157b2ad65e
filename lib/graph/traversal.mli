(** Reachability, topological sorting and cycle finding.

    Every algorithm has two entry points: a [Csr.t] one (the
    implementation) and a [Digraph.t] convenience wrapper that freezes
    first.  Hot paths that query the same graph repeatedly should freeze
    once and use the [_csr] variants. *)

val reachable : Digraph.t -> int list -> bool array
(** [reachable g sources] marks every vertex reachable from any source
    (sources themselves included). *)

val topological_sort : Digraph.t -> int list option
(** Kahn's algorithm.  [Some order] lists all vertices with every edge
    pointing forward; [None] when the graph has a (possibly self-loop)
    cycle. *)

val is_acyclic : Digraph.t -> bool

val find_cycle : Digraph.t -> int list option
(** Some elementary cycle [v1; ...; vk] (edges [vi -> vi+1] and
    [vk -> v1]), or [None] for acyclic graphs.  A self loop yields a
    singleton list. *)

(** {1 CSR-native variants} *)

val reachable_csr : Csr.t -> int list -> bool array
val topological_sort_csr : Csr.t -> int list option
val is_acyclic_csr : Csr.t -> bool
val find_cycle_csr : Csr.t -> int list option
