(** Machine-readable checker reports (JSON), for scripting around the CLI
    and archiving verdicts in CI. *)

open Dfr_network
open Dfr_routing

val of_outcome :
  ?metrics:Dfr_util.Json.t -> Net.t -> Algo.t -> Checker.report -> Dfr_util.Json.t
(** The single constructor of the report object, shared by [dfcheck
    check --json], [dfcheck spec check --json], the serving layer's cached
    verdicts and the incremental re-checker — the surfaces can never
    drift.  The BWG contributes its vertex and edge counts, and its cycle
    count ({!Checker.report}'s [bwg_cycles]) or [null].  A Theorem-3
    proof carries [via_hint] and [removed_waits] and no cycle count.  [metrics],
    when given, is appended as a final ["metrics"] field (the parser
    ignores unknown fields, so this is compatible with {!of_string}). *)

val of_report : Net.t -> Algo.t -> Checker.report -> Dfr_util.Json.t
(** {!of_outcome} without metrics. *)

val to_string : Net.t -> Algo.t -> Checker.report -> string
(** Pretty-printed {!of_report}. *)

val exit_code : Checker.verdict -> int
(** The CLI exit-code table (0 deadlock-free, 1 deadlock, 3 unknown),
    also served as the ["exit"] field of a protocol response.  Pinned by
    test/cli_exit_codes.sh. *)

(** {2 Round-tripping}

    The structured part of a report can be read back, so scripts (or a
    future verification service) can consume checker output instead of
    only producing it. *)

type summary = {
  algorithm : string;
  waiting : Algo.wait_discipline;
  network : string;
  nodes : int;
  buffers : int;
  bwg_vertices : int;
  bwg_edges : int;
  bwg_cycles : int option;
      (** [None] ([null] in the report) when the full BWG's cycles were not
          all enumerated: a Theorem-1, knot or wait-connectivity verdict,
          or a multi-wait one reached past a True Cycle *)
  result : string;  (** ["deadlock-free"], ["deadlock"] or ["unknown"] *)
  theorem : int option;  (** which of Theorems 1-3 proved freedom *)
  failure_kind : string option;  (** e.g. ["true-cycle"], ["knot"] *)
  cycle : string list;  (** buffer names of the offending cycle, if any *)
}

val of_string : string -> (summary, string) result
(** Parse the output of {!to_string}. *)
