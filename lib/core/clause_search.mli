(** The one conflict-driven search behind every wait-set and route-set
    search: {!Reduction.search} (the checker's Theorem-3 fallback and
    [synth --mode bwg]) and the copy-assignment search of
    [synth --mode repair].

    The searched object is an assignment of finite-valued variables; a
    literal [{var; value}] holds while [var] has [value].  The caller
    describes its problem through four hooks.  [probe] tests the current
    assignment.  A conflict it reports becomes a {e blocking clause}: a
    set of literals that all hold now, at least one of which must stop
    holding.  Clauses are learned, so an assignment under which a whole
    learned clause holds again is pruned without a probe.

    At a conflict the search branches depth first, over three tiers:
    the caller's preferred [moves] (each sets several variables at once),
    then the clause's preferred literals, then the rest of the clause.
    Within a literal tier the most active variable goes first (activity
    counts the clauses that mention a variable), ties in literal order.
    Branching on a literal tries each other value of its variable in
    ascending order and freezes the variable down that subtree.  [assign]
    may refuse a value, which skips that branch.  Every decision (a move,
    or one value of a literal) is counted before [assign] can refuse it.

    The literal tiers alone are a complete branching rule.  So when every
    clause is exact (its conflict recurs under every assignment on which
    it holds) and [assign] refuses only assignments no solution extends,
    [Exhausted] is a proof that no solution exists.  Nothing here is
    randomized: the same hooks give the same search. *)

type lit = { var : int; value : int }

type 'c hooks = {
  probe : unit -> ('c option, string) result;
      (** [Ok None]: the current assignment is a solution; [Ok (Some c)]:
          conflict [c]; [Error reason]: inconclusive.  The search
          backtracks from an inconclusive probe and can then no longer
          answer [Exhausted]. *)
  clause : 'c -> lit list * lit list;
      (** the conflict's blocking clause and the subset of it to branch on
          first; an empty clause means no assignment below this point can
          avoid the conflict *)
  moves : 'c -> lit list Seq.t;
      (** preferred moves, tried before the clause's literals: each sets
          every listed variable to the listed value, and is skipped unless
          it changes every one of them and none is frozen.  Forced one at
          a time, after the previous move's subtree was undone. *)
  assign : int -> int -> bool;
      (** [assign var value] runs once the assignment holds [value] for
          [var]: it applies the change to the caller's model, or returns
          [false], changing nothing, and the search restores the old
          value *)
}

type stats = {
  rebuilds : int;  (** probes, the search's cost unit *)
  decisions : int;
  conflicts : int;
  learned : int;  (** clauses recorded, each one new *)
  pruned : int;  (** assignments rejected by a learned clause, no probe *)
}

type outcome =
  | Found  (** the caller's model holds the solution the last probe accepted *)
  | Exhausted  (** no assignment satisfies the hooks (see above) *)
  | Gave_up of string
      (** the rebuild budget or the decision limit ran out, or the search
          ended with some probe inconclusive *)

val run : budget:int -> arity:(int -> int) -> int array -> 'c hooks -> outcome * stats
(** [run ~budget ~arity assignment hooks] searches from [assignment],
    variable [v] ranging over [0 .. arity v - 1], changing [assignment] in
    place: callers' hooks may read it, and it holds the solution after
    [Found].  [budget] caps the probes; [256 * budget] caps the decisions,
    since pruned subtrees cost no probe. *)
