(* The serving subsystem: LRU verdict cache, protocol parsing, and the
   engine's end-to-end behaviour — cache hits bit-for-bit identical to
   the original response, deterministic queue_full backpressure,
   malformed-request isolation, timeouts, and byte-determinism across
   pool caps and --domains settings. *)

open Dfr_serve
module J = Dfr_util.Json

let check = Alcotest.check

(* ---------------- cache ---------------- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check Alcotest.(option int) "a present" (Some 1) (Cache.find c "a");
  (* the find refreshed "a", so "b" is now least recently used *)
  Cache.add c "c" 3;
  check Alcotest.bool "b evicted" false (Cache.mem c "b");
  check Alcotest.bool "a survives" true (Cache.mem c "a");
  check Alcotest.bool "c present" true (Cache.mem c "c");
  check Alcotest.(option int) "b gone" None (Cache.find c "b");
  check Alcotest.int "hits" 1 (Cache.hits c);
  check Alcotest.int "misses" 1 (Cache.misses c);
  check Alcotest.int "evictions" 1 (Cache.evictions c);
  check Alcotest.int "length" 2 (Cache.length c)

let test_cache_refresh_existing () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* re-adding an existing key refreshes, never evicts *)
  Cache.add c "a" 10;
  check Alcotest.int "no eviction" 0 (Cache.evictions c);
  Cache.add c "c" 3;
  check Alcotest.bool "b was LRU" false (Cache.mem c "b");
  check Alcotest.(option int) "a rebound" (Some 10) (Cache.find c "a")

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 () in
  Cache.add c "a" 1;
  check Alcotest.(option int) "never stores" None (Cache.find c "a");
  check Alcotest.int "empty" 0 (Cache.length c);
  (* regression: a disabled cache used to count every find as a miss,
     reporting a 0% hit rate for a cache never asked to store anything *)
  check Alcotest.int "disabled counts no misses" 0 (Cache.misses c);
  check Alcotest.int "disabled counts no hits" 0 (Cache.hits c);
  check Alcotest.bool "hit_rate stays null" true
    (match Dfr_util.Json.member "hit_rate" (Cache.stats_json c) with
    | Some Dfr_util.Json.Null -> true
    | _ -> false);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Cache.create: negative capacity") (fun () ->
      ignore (Cache.create ~capacity:(-1) ()))

let test_cache_entry_byte_cap () =
  let c = Cache.create ~max_entry_bytes:100 ~capacity:2 () in
  Cache.add ~bytes:60 c "small" 1;
  Cache.add ~bytes:101 c "huge" 2;
  check Alcotest.bool "over the cap never stored" false (Cache.mem c "huge");
  check Alcotest.int "reject counted" 1 (Cache.oversize_rejects c);
  check Alcotest.int "reject leaves weights alone" 60 (Cache.total_bytes c);
  Cache.add ~bytes:100 c "edge" 3;
  check Alcotest.bool "exactly at the cap stored" true (Cache.mem c "edge");
  check Alcotest.int "weights aggregate" 160 (Cache.total_bytes c);
  (* entry-count eviction releases the evictee's weight *)
  Cache.add ~bytes:40 c "third" 4;
  check Alcotest.bool "LRU evicted" false (Cache.mem c "small");
  check Alcotest.int "evictee's bytes released" 140 (Cache.total_bytes c);
  (* re-adding replaces the old weight, not accumulates it *)
  Cache.add ~bytes:10 c "edge" 5;
  check Alcotest.int "rebind swaps the weight" 50 (Cache.total_bytes c);
  check Alcotest.int "rebind is not an eviction" 1 (Cache.evictions c);
  (* unlimited by default: huge weights pass *)
  let u = Cache.create ~capacity:1 () in
  Cache.add ~bytes:max_int u "big" 1;
  check Alcotest.bool "no cap by default" true (Cache.mem u "big")

(* ---------------- protocol ---------------- *)

let test_protocol_parse () =
  (match Protocol.parse "{\"op\":\"ping\",\"id\":3}" with
  | Ok { Protocol.id = Some (J.Int 3); req = Protocol.Ping } -> ()
  | _ -> Alcotest.fail "ping with id");
  (* the id is recovered even when the request is rejected *)
  (match Protocol.parse "{\"id\":7,\"op\":\"bogus\"}" with
  | Error (Some (J.Int 7), _) -> ()
  | _ -> Alcotest.fail "id lost on unknown op");
  (match Protocol.parse "{\"op\":\"check\"}" with
  | Error (None, msg) ->
    check Alcotest.bool "names the missing fields" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "check without spec/algo accepted");
  (match Protocol.parse "[1,2]" with
  | Error (None, _) -> ()
  | _ -> Alcotest.fail "non-object accepted");
  (match Protocol.parse "{\"op\":\"sleep\",\"ms\":-1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative sleep accepted");
  match
    Protocol.parse
      (Printf.sprintf "{\"op\":\"sleep\",\"ms\":%d}" (Protocol.max_sleep_ms + 1))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized sleep accepted"

(* ---------------- engine ---------------- *)

let member name doc =
  match J.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (J.to_string doc)

let is_ok doc = match member "ok" doc with J.Bool b -> b | _ -> false
let is_cached doc = match member "cached" doc with J.Bool b -> b | _ -> false

let error_kind doc =
  match J.member "kind" (member "error" doc) with
  | Some (J.String k) -> k
  | _ -> Alcotest.failf "no error kind in %s" (J.to_string doc)

let with_engine ?(config = Engine.default_config) f =
  let e = Engine.create config in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f e)

(* handle+await one line at a time: the request-response client *)
let run_seq e lines = List.map (fun l -> Engine.await e (Engine.handle_line e l)) lines

(* handle every line first, then drain: the streaming client *)
let run_pipelined e lines =
  let slots = List.map (Engine.handle_line e) lines in
  List.map (Engine.await e) slots

let named ?id algo topo =
  let fields =
    [ ("op", J.String "check"); ("algo", J.String algo);
      ("topology", J.String topo) ]
  in
  let fields = match id with Some i -> ("id", J.Int i) :: fields | None -> fields in
  J.to_string (J.Obj fields)

let test_engine_cache_hit_bit_for_bit () =
  with_engine (fun e ->
      match run_seq e [ named "efa" "hypercube:2"; named "efa" "hypercube:2" ] with
      | [ cold; warm ] ->
        check Alcotest.bool "cold ok" true (is_ok cold);
        check Alcotest.bool "cold is a miss" false (is_cached cold);
        check Alcotest.bool "warm is a hit" true (is_cached warm);
        check Alcotest.string "same digest"
          (J.to_string (member "digest" cold))
          (J.to_string (member "digest" warm));
        check Alcotest.string "same exit code"
          (J.to_string (member "exit" cold))
          (J.to_string (member "exit" warm));
        (* the hit replays the first response's report verbatim *)
        check Alcotest.string "bit-for-bit report"
          (J.to_string (member "report" cold))
          (J.to_string (member "report" warm))
      | _ -> Alcotest.fail "two responses expected")

let test_engine_cross_surface_digest () =
  (* a named problem and the inline spec printed from the very same
     network share one digest, hence one cache entry *)
  let entry =
    match Dfr_routing.Registry.find "efa" with
    | Some e -> e
    | None -> Alcotest.fail "efa not registered"
  in
  let topo =
    match Dfr_topology.Topology.of_string "hypercube:2" with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let net = Dfr_routing.Registry.network_for entry (Some topo) in
  let spec_text =
    match Dfr_spec.Printer.to_string net entry.Dfr_routing.Registry.algo with
    | Ok t -> t
    | Error m -> Alcotest.failf "unprintable: %s" m
  in
  let inline =
    J.to_string (J.Obj [ ("op", J.String "check"); ("spec", J.String spec_text) ])
  in
  with_engine (fun e ->
      match run_seq e [ named "efa" "hypercube:2"; inline ] with
      | [ by_name; by_spec ] ->
        check Alcotest.bool "inline answered from cache" true (is_cached by_spec);
        check Alcotest.string "one digest for both surfaces"
          (J.to_string (member "digest" by_name))
          (J.to_string (member "digest" by_spec))
      | _ -> Alcotest.fail "two responses expected")

let stats e name =
  let resp = Engine.await e (Engine.handle_line e "{\"op\":\"stats\"}") in
  member name (member "stats" resp)

let test_engine_lru_and_counters () =
  let config = { Engine.default_config with Engine.cache_capacity = 1 } in
  with_engine ~config (fun e ->
      match
        run_seq e
          [
            named "efa" "hypercube:2" (* miss *);
            named "efa" "hypercube:2" (* hit *);
            named "ecube" "hypercube:2" (* miss, evicts efa *);
            named "efa" "hypercube:2" (* miss again: was evicted *);
          ]
      with
      | [ _; r2; r3; r4 ] ->
        check Alcotest.bool "second is a hit" true (is_cached r2);
        check Alcotest.bool "other problem misses" false (is_cached r3);
        check Alcotest.bool "evicted problem misses" false (is_cached r4);
        let cache = stats e "cache" in
        check Alcotest.string "hits" "1" (J.to_string (member "hits" cache));
        check Alcotest.string "misses" "3" (J.to_string (member "misses" cache));
        check Alcotest.string "evictions" "2"
          (J.to_string (member "evictions" cache));
        check Alcotest.string "size" "1" (J.to_string (member "size" cache))
      | _ -> Alcotest.fail "four responses expected")

(* the topology parser accepts many spellings of one instance; the memo
   from named problems to digests is bounded by the cache capacity *)
let test_engine_digest_memo_bounded () =
  let config = { Engine.default_config with Engine.cache_capacity = 4 } in
  with_engine ~config (fun e ->
      let spellings =
        List.init 10 (fun k -> "hypercube:" ^ String.make k '0' ^ "2")
      in
      let responses = run_seq e (List.map (named "efa") spellings) in
      List.iter (fun r -> check Alcotest.bool "answered ok" true (is_ok r)) responses;
      let digests =
        List.sort_uniq compare
          (List.map (fun r -> J.to_string (member "digest" r)) responses)
      in
      check Alcotest.int "one digest for every spelling" 1 (List.length digests);
      match member "size" (stats e "digests") with
      | J.Int n -> check Alcotest.bool "memo holds at most 4 entries" true (n <= 4)
      | _ -> Alcotest.fail "memo size missing")

let test_engine_entry_byte_cap () =
  (* a report bigger than the per-entry cap is served but never cached,
     so an identical re-request recomputes instead of hitting *)
  let config = { Engine.default_config with Engine.cache_entry_bytes = 64 } in
  with_engine ~config (fun e ->
      match run_seq e [ named "efa" "hypercube:2"; named "efa" "hypercube:2" ] with
      | [ r1; r2 ] ->
        check Alcotest.bool "first ok" true (is_ok r1);
        check Alcotest.bool "second ok" true (is_ok r2);
        check Alcotest.bool "re-request recomputes" false (is_cached r2);
        let cache = stats e "cache" in
        check Alcotest.string "rejects counted" "2"
          (J.to_string (member "oversize_rejects" cache));
        check Alcotest.string "nothing stored" "0"
          (J.to_string (member "size" cache))
      | _ -> Alcotest.fail "two responses expected")

let test_engine_coalescing () =
  (* identical checks submitted before the first settles share one
     computation; the follower is marked cached *)
  with_engine (fun e ->
      match
        run_pipelined e [ named "efa" "hypercube:2"; named "efa" "hypercube:2" ]
      with
      | [ first; second ] ->
        check Alcotest.bool "leader computes" false (is_cached first);
        check Alcotest.bool "follower coalesces" true (is_cached second);
        check Alcotest.string "same report"
          (J.to_string (member "report" first))
          (J.to_string (member "report" second));
        let cache = stats e "cache" in
        (* both lookups happened before anything was cached *)
        check Alcotest.string "both were misses" "2"
          (J.to_string (member "misses" cache));
        check Alcotest.string "one entry stored" "1"
          (J.to_string (member "size" cache))
      | _ -> Alcotest.fail "two responses expected")

let test_engine_malformed_isolated () =
  with_engine (fun e ->
      match
        run_seq e
          [
            "this is not json";
            "{\"op\":\"nope\",\"id\":9}";
            "{\"op\":\"check\",\"spec\":\"network bad {\"}";
            "{\"op\":\"check\",\"algo\":\"no-such-algorithm\"}";
            (* the routing function refuses the network it is given *)
            "{\"op\":\"check\",\"algo\":\"efa\",\"topology\":\"mesh:3x3\"}";
            "{\"op\":\"ping\",\"id\":10}";
            (* an integer literal past max_int, then a vc whose buffer
               count overflows when the network is built *)
            "{\"op\":\"check\",\"spec\":\"nodes 99999999999999999999\\n\"}";
            "{\"op\":\"ping\",\"id\":11}";
            "{\"op\":\"check\",\"spec\":\"switching saf\\nnodes 2\\nchannel a : 0 -> 1 vc \
             4611686018427387902\\n\"}";
            "{\"op\":\"ping\",\"id\":12}";
          ]
      with
      | [ r1; r2; r3; r4; r6; r5; big; p11; vc; p12 ] ->
        check Alcotest.string "garbage -> parse" "parse" (error_kind r1);
        check Alcotest.string "unknown op -> parse" "parse" (error_kind r2);
        check Alcotest.string "id recovered" "9" (J.to_string (member "id" r2));
        check Alcotest.string "bad spec -> spec" "spec" (error_kind r3);
        check Alcotest.string "unknown algo -> bad_request" "bad_request"
          (error_kind r4);
        check Alcotest.string "refused topology -> check" "check" (error_kind r6);
        check Alcotest.bool "server survives it all" true (is_ok r5);
        check Alcotest.string "oversized literal -> spec" "spec" (error_kind big);
        check Alcotest.string "positioned" "1:7: integer literal out of range"
          (match J.member "message" (member "error" big) with
          | Some (J.String m) -> m
          | _ -> "");
        check Alcotest.bool "ping after the literal" true (is_ok p11);
        check Alcotest.string "overflowing vc -> spec" "spec" (error_kind vc);
        check Alcotest.bool "ping after the vc" true (is_ok p12)
      | _ -> Alcotest.fail "ten responses expected")

let test_engine_queue_full () =
  let config = { Engine.default_config with Engine.capacity = 1 } in
  with_engine ~config (fun e ->
      let slow = Engine.handle_line e "{\"op\":\"sleep\",\"ms\":200}" in
      (* the single slot is taken: the next request is refused at once *)
      let refused = Engine.handle_line e "{\"op\":\"sleep\",\"ms\":0}" in
      (match Engine.poll e refused with
      | Some resp ->
        check Alcotest.string "refused deterministically" "queue_full"
          (error_kind resp)
      | None -> Alcotest.fail "queue_full response must be immediate");
      let resp = Engine.await e slow in
      check Alcotest.bool "slow job still completes" true (is_ok resp);
      (* the freed slot admits again *)
      let again = Engine.await e (Engine.handle_line e "{\"op\":\"sleep\",\"ms\":0}") in
      check Alcotest.bool "slot released" true (is_ok again))

let test_engine_timeout () =
  let config = { Engine.default_config with Engine.timeout_ms = 30 } in
  with_engine ~config (fun e ->
      let resp = Engine.await e (Engine.handle_line e "{\"op\":\"sleep\",\"ms\":300}") in
      check Alcotest.string "deadline enforced" "timeout" (error_kind resp))

(* a deadline answers the client but cannot stop the job, so the job
   keeps its admission slot until it really finishes *)
let test_engine_timeout_keeps_slot () =
  let config =
    { Engine.default_config with Engine.capacity = 1; timeout_ms = 30 }
  in
  with_engine ~config (fun e ->
      let slow = Engine.await e (Engine.handle_line e "{\"op\":\"sleep\",\"ms\":300}") in
      check Alcotest.string "answered timeout" "timeout" (error_kind slow);
      let next = Engine.await e (Engine.handle_line e "{\"op\":\"sleep\",\"ms\":0}") in
      check Alcotest.string "the sleeper still holds the slot" "queue_full"
        (error_kind next);
      Unix.sleepf 0.4;
      let later = Engine.await e (Engine.handle_line e "{\"op\":\"sleep\",\"ms\":0}") in
      check Alcotest.bool "admitted once the sleeper finished" true (is_ok later));
  Alcotest.check_raises "no slots at all is rejected"
    (Invalid_argument "Engine.create: capacity >= 1") (fun () ->
      ignore (Engine.create { Engine.default_config with Engine.capacity = 0 }))

let test_engine_shutdown_guard () =
  with_engine (fun e ->
      let bye = Engine.await e (Engine.handle_line e "{\"op\":\"shutdown\"}") in
      check Alcotest.bool "shutdown acknowledged" true (is_ok bye);
      check Alcotest.bool "flagged" true (Engine.shutdown_requested e);
      let late = Engine.await e (Engine.handle_line e "{\"op\":\"ping\"}") in
      check Alcotest.string "late arrivals refused" "shutting_down"
        (error_kind late))

(* ---------------- check_delta ---------------- *)

let fullmesh_spec ~adaptive =
  String.concat "\n"
    ([
       "network fullmesh-direct-4";
       "topology fullmesh 4";
       "switching wormhole";
       "vcs 1";
       "waiting any";
       (if adaptive then "route at 0 to 1 : c0_1_0 c0_2_0"
        else "route at 0 to 1 : c0_1_0");
       "route at 0 to 2 : c0_2_0";
       "route at 0 to 3 : c0_3_0";
       "route at 1 to 0 : c1_0_0";
       "route at 1 to 2 : c1_2_0";
       "route at 1 to 3 : c1_3_0";
       "route at 2 to 0 : c2_0_0";
       "route at 2 to 1 : c2_1_0";
       "route at 2 to 3 : c2_3_0";
       "route at 3 to 0 : c3_0_0";
       "route at 3 to 1 : c3_1_0";
       "route at 3 to 2 : c3_2_0";
     ])

let delta_req ~base spec =
  J.to_string
    (J.Obj
       [
         ("op", J.String "check_delta");
         ("base", J.String base);
         ("spec", J.String spec);
       ])

let spec_req spec =
  J.to_string (J.Obj [ ("op", J.String "check"); ("spec", J.String spec) ])

let delta_field name doc =
  match J.member name (member "delta" doc) with
  | Some v -> v
  | None -> Alcotest.failf "delta lacks %S: %s" name (J.to_string doc)

let delta_mode doc =
  match delta_field "mode" doc with
  | J.String m -> m
  | _ -> Alcotest.fail "non-string delta mode"

let test_protocol_parse_delta () =
  (match Protocol.parse "{\"op\":\"check_delta\",\"base\":\"abc\",\"spec\":\"x\"}" with
  | Ok { Protocol.req = Protocol.Check_delta { base; spec }; _ } ->
    check Alcotest.string "base" "abc" base;
    check Alcotest.string "spec" "x" spec
  | _ -> Alcotest.fail "check_delta not parsed");
  match Protocol.parse "{\"op\":\"check_delta\",\"spec\":\"x\"}" with
  | Error (_, msg) ->
    check Alcotest.bool "missing base diagnosed" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "check_delta without base accepted"

let test_engine_delta_cold_then_fast () =
  with_engine (fun e ->
      let base_spec = fullmesh_spec ~adaptive:false in
      let edit_spec = fullmesh_spec ~adaptive:true in
      (* unknown base digest: cold fallback that seeds the session *)
      let cold = Engine.await e (Engine.handle_line e (delta_req ~base:"nope" base_spec)) in
      check Alcotest.bool "cold ok" true (is_ok cold);
      check Alcotest.string "session miss is cold" "cold" (delta_mode cold);
      let digest =
        match member "digest" cold with
        | J.String d -> d
        | _ -> Alcotest.fail "no digest"
      in
      (* the delta verdict equals a plain check's report bytes — and the
         plain check hits the verdict cache the delta populated *)
      let plain = Engine.await e (Engine.handle_line e (spec_req base_spec)) in
      check Alcotest.bool "delta seeded the verdict cache" true (is_cached plain);
      check Alcotest.string "cold delta report = plain report"
        (J.to_string (member "report" plain))
        (J.to_string (member "report" cold));
      (* now the edit, against the session the cold call parked *)
      let fast = Engine.await e (Engine.handle_line e (delta_req ~base:digest edit_spec)) in
      check Alcotest.bool "fast ok" true (is_ok fast);
      check Alcotest.string "session hit is fast" "fast" (delta_mode fast);
      check Alcotest.int "one dirty dest" 1
        (match delta_field "dirty_dests" fast with J.Int n -> n | _ -> -1);
      check Alcotest.int "rest reused" 3
        (match delta_field "reused_dests" fast with J.Int n -> n | _ -> -1);
      let plain_edit = Engine.await e (Engine.handle_line e (spec_req edit_spec)) in
      check Alcotest.string "fast delta report = plain report"
        (J.to_string (member "report" plain_edit))
        (J.to_string (member "report" fast));
      (* chaining: the session moved to the edit's digest *)
      let edit_digest =
        match member "digest" fast with
        | J.String d -> d
        | _ -> Alcotest.fail "no digest"
      in
      let back = Engine.await e (Engine.handle_line e (delta_req ~base:edit_digest base_spec)) in
      check Alcotest.string "chained edit stays incremental" "fast" (delta_mode back))

let test_engine_delta_sessions_disabled () =
  let config = { Engine.default_config with Engine.sessions = 0 } in
  with_engine ~config (fun e ->
      let spec = fullmesh_spec ~adaptive:false in
      let r1 = Engine.await e (Engine.handle_line e (delta_req ~base:"x" spec)) in
      check Alcotest.string "first is cold" "cold" (delta_mode r1);
      let digest =
        match member "digest" r1 with J.String d -> d | _ -> Alcotest.fail "no digest"
      in
      (* no session store: even a well-addressed delta re-checks cold *)
      let r2 = Engine.await e (Engine.handle_line e (delta_req ~base:digest spec)) in
      check Alcotest.string "still cold" "cold" (delta_mode r2);
      check Alcotest.string "verdict bytes unaffected"
        (J.to_string (member "report" r1))
        (J.to_string (member "report" r2)))

let test_engine_delta_bad_spec () =
  with_engine (fun e ->
      let resp = Engine.await e (Engine.handle_line e (delta_req ~base:"x" "not a spec")) in
      check Alcotest.bool "rejected" false (is_ok resp);
      check Alcotest.string "spec error kind" "spec" (error_kind resp))

let test_engine_deterministic_across_domains () =
  (* every response byte must be a function of the request sequence
     alone, whatever the parallelism knobs say *)
  let script =
    [
      "{\"op\":\"ping\",\"id\":1}";
      named ~id:2 "efa" "hypercube:2";
      "not json";
      named ~id:4 "efa" "hypercube:2";
      named ~id:5 "ecube" "hypercube:2";
      "{\"op\":\"check\",\"algo\":\"no-such-algorithm\",\"id\":6}";
    ]
  in
  let run cap domains =
    Dfr_util.Domain_pool.set_cap (Some cap);
    Fun.protect ~finally:(fun () -> Dfr_util.Domain_pool.set_cap None) (fun () ->
        with_engine ~config:{ Engine.default_config with Engine.domains }
          (fun e -> String.concat "\n" (List.map J.to_string (run_seq e script))))
  in
  let base = run 1 1 in
  List.iter
    (fun (cap, domains) ->
      check Alcotest.string
        (Printf.sprintf "byte-identical transcript at cap %d, domains %d" cap domains)
        base (run cap domains))
    [ (1, 2); (2, 1); (2, 2); (4, 1); (4, 2) ]

(* satellite: an unspecified --domains (config 0) auto-sizes from the
   machine at create time; the stored value is the pool cap, never 0 *)
let test_engine_default_domains_auto () =
  check Alcotest.int "config default is auto" 0
    Engine.default_config.Engine.domains;
  with_engine (fun e ->
      check Alcotest.int "resolved to the pool cap"
        (Dfr_util.Domain_pool.cap ())
        (Engine.domains e));
  with_engine
    ~config:{ Engine.default_config with Engine.domains = 3 }
    (fun e -> check Alcotest.int "explicit setting wins" 3 (Engine.domains e));
  Alcotest.check_raises "negative domains rejected"
    (Invalid_argument "Engine.create: domains >= 0") (fun () ->
      ignore (Engine.create { Engine.default_config with Engine.domains = -1 }))

let test_engine_scenario_op () =
  let plan = "plan \"t\"\nseed 1\nat 0 kill link 0 -> 1\n" in
  let req mode =
    J.to_string
      (J.Obj
         [
           ("id", J.Int 9);
           ("op", J.String "scenario");
           ("algo", J.String "dimension-order");
           ("topology", J.String "mesh:3x3");
           ("plan", J.String plan);
           ("mode", J.String mode);
         ])
  in
  with_engine (fun e ->
      match run_seq e [ req "sweep"; req "sequence" ] with
      | [ sweep; seq ] ->
        check Alcotest.bool "sweep ok" true (is_ok sweep);
        check Alcotest.bool "sequence ok" true (is_ok seq);
        (* one XY link cut strands sources: a deadlock exit *)
        check Alcotest.string "exit 1" "1" (J.to_string (member "exit" sweep));
        let faults doc =
          match J.member "faults" (member "campaign" doc) with
          | Some (J.List l) -> List.length l
          | _ -> Alcotest.fail "campaign lacks faults"
        in
        check Alcotest.int "one fault outcome" 1 (faults sweep);
        check Alcotest.int "sequence agrees" 1 (faults seq)
      | _ -> Alcotest.fail "two responses expected");
  (* a broken plan is a client error, not a crash *)
  with_engine (fun e ->
      let bad =
        J.to_string
          (J.Obj
             [
               ("op", J.String "scenario");
               ("algo", J.String "dimension-order");
               ("plan", J.String "nonsense directive\n");
             ])
      in
      match run_seq e [ bad ] with
      | [ doc ] ->
        check Alcotest.bool "rejected" false (is_ok doc);
        check Alcotest.string "kind" "bad_request" (error_kind doc)
      | _ -> Alcotest.fail "one response expected")

let suite =
  [
    Alcotest.test_case "cache: LRU eviction and counters" `Quick test_cache_lru;
    Alcotest.test_case "cache: re-add refreshes without evicting" `Quick
      test_cache_refresh_existing;
    Alcotest.test_case "cache: per-entry byte cap and weights" `Quick
      test_cache_entry_byte_cap;
    Alcotest.test_case "cache: capacity 0 disables storage" `Quick
      test_cache_disabled;
    Alcotest.test_case "protocol: parse and id recovery" `Quick
      test_protocol_parse;
    Alcotest.test_case "engine: cache hit replays the report bit-for-bit"
      `Quick test_engine_cache_hit_bit_for_bit;
    Alcotest.test_case "engine: named and inline specs share a digest" `Quick
      test_engine_cross_surface_digest;
    Alcotest.test_case "engine: LRU eviction and hit/miss counters" `Quick
      test_engine_lru_and_counters;
    Alcotest.test_case "engine: the digest memo is bounded" `Quick
      test_engine_digest_memo_bounded;
    Alcotest.test_case "engine: oversized reports are served uncached" `Quick
      test_engine_entry_byte_cap;
    Alcotest.test_case "engine: identical in-flight checks coalesce" `Quick
      test_engine_coalescing;
    Alcotest.test_case "engine: malformed requests never kill the server"
      `Quick test_engine_malformed_isolated;
    Alcotest.test_case "engine: queue_full backpressure is deterministic"
      `Quick test_engine_queue_full;
    Alcotest.test_case "engine: per-request deadline" `Quick test_engine_timeout;
    Alcotest.test_case "engine: a timed-out job keeps its admission slot"
      `Quick test_engine_timeout_keeps_slot;
    Alcotest.test_case "engine: shutdown refuses late arrivals" `Quick
      test_engine_shutdown_guard;
    Alcotest.test_case "engine: transcript is domain-count independent" `Quick
      test_engine_deterministic_across_domains;
    Alcotest.test_case "protocol: check_delta parse" `Quick
      test_protocol_parse_delta;
    Alcotest.test_case "engine: delta cold seed then fast re-check" `Quick
      test_engine_delta_cold_then_fast;
    Alcotest.test_case "engine: sessions 0 disables the delta path" `Quick
      test_engine_delta_sessions_disabled;
    Alcotest.test_case "engine: delta of a broken spec errors cleanly" `Quick
      test_engine_delta_bad_spec;
    Alcotest.test_case "engine: default domains auto-size from the machine"
      `Quick test_engine_default_domains_auto;
    Alcotest.test_case "engine: scenario op runs a campaign" `Quick
      test_engine_scenario_op;
  ]
