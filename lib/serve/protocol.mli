(** The NDJSON checking protocol: one JSON object per line in, one per
    line out, responses in request order.

    Requests:
    {v
    {"id": <any>, "op": "check", "spec": "<.dfr text>"}
    {"id": <any>, "op": "check", "algo": "efa", "topology": "hypercube:3"}
    {"id": <any>, "op": "check_delta", "base": "<digest>", "spec": "<.dfr text>"}
    {"id": <any>, "op": "scenario", "spec": "<.dfr text>",
     "plan": "<.plan text>", "mode": "sweep"}
    {"op": "catalogue"} {"op": "stats"} {"op": "ping"}
    {"op": "sleep", "ms": 250}          (testing/latency probe)
    {"op": "shutdown"}
    v}

    ["id"] may be any JSON value; it is echoed verbatim on the response
    (and omitted when absent).  Responses always carry ["ok"]: [true]
    with op-specific fields, or [false] with an ["error"] object whose
    ["kind"] is one of [parse], [bad_request], [spec], [unprintable],
    [queue_full], [timeout], [check], [internal], [shutting_down]. *)

open Dfr_util

type request =
  | Check of Dfr_ops.Ops.source
      (** inline .dfr source ([Spec (Text _)]; it wins when both fields
          are present) or a registry algorithm, optionally on an explicit
          topology *)
  | Check_delta of { base : string; spec : string }
      (** re-check an edited spec against the incremental session for
          [base] (the digest a previous check/check_delta response
          reported); falls back to a cold build on a session miss *)
  | Scenario of {
      source : Dfr_ops.Ops.source;  (** as for [Check] *)
      plan : string;  (** inline fault-plan text ({!Dfr_scenario.Fault}) *)
      sweep : bool;  (** ["mode"]: [true] = "sweep" (default), "sequence" *)
    }  (** run a fault campaign; the response's ["campaign"] field is
           {!Dfr_ops.Ops.scenario}'s document *)
  | Catalogue
  | Stats
  | Ping
  | Sleep of { ms : int }
  | Shutdown

type parsed = { id : Json.t option; req : request }

val max_sleep_ms : int
(** Upper bound accepted for [Sleep] (the probe must not be able to park
    a worker forever). *)

val parse : string -> (parsed, Json.t option * string) result
(** Parse one request line.  Errors carry whatever ["id"] could still be
    recovered, so even a malformed request gets an addressed reply. *)

(** {2 Response constructors} — compact single-line rendering is the
    caller's job ({!Json.to_string}). *)

val ok_response : id:Json.t option -> op:string -> (string * Json.t) list -> Json.t
val error_response : id:Json.t option -> kind:string -> string -> Json.t

val refusal : id:Json.t option -> Dfr_ops.Ops.error -> Json.t
(** The error response for an {!Dfr_ops.Ops.error}: kind [bad_request],
    [spec] or [check]. *)

val check_response :
  id:Json.t option -> cached:bool -> digest:string -> exit_code:int -> report:Json.t -> Json.t

val check_delta_response :
  id:Json.t option -> digest:string -> exit_code:int -> report:Json.t -> delta:Json.t -> Json.t
(** Same ["report"] bytes a plain check of the edited spec would emit,
    plus a ["delta"] object [{"base", "mode", "dirty_dests",
    "reused_dests"}] where ["mode"] is ["fast"], ["replay"] or
    ["cold"]. *)
