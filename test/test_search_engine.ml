(* Tests for the incremental/memoized/multicore search engine (lib/opt):
   it must agree with the reference beam search [Search.best] on the winner,
   be bit-identical across domain counts, and actually avoid work. *)

open Itf_ir
module Search = Itf_opt.Search
module Engine = Itf_opt.Engine
module Sequence = Itf_core.Sequence

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let seq_testable =
  Alcotest.testable Sequence.pp (fun a b -> Sequence.compare a b = 0)

let column_major () =
  Nest.make
    [
      Nest.loop "i" Expr.one (Expr.var "n");
      Nest.loop "j" Expr.one (Expr.var "n");
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "j"; Expr.var "i" ] },
          Expr.add (Expr.var "i") (Expr.var "j") );
    ]

let stencil () =
  Nest.make
    [
      Nest.loop "i" (Expr.int 2) (Expr.var "n");
      Nest.loop "j" (Expr.int 2) (Expr.var "n");
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
          Expr.add
            (Expr.Load
               { array = "a"; index = [ Expr.(sub (var "i") (int 1)); Expr.var "j" ] })
            (Expr.Load
               { array = "a"; index = [ Expr.var "i"; Expr.(sub (var "j") (int 1)) ] })
        );
    ]

let cases =
  lazy
    [
      ( "column-major/locality",
        column_major (),
        Search.cache_misses ~params:[ ("n", 24) ] (),
        2 );
      ( "matmul/locality",
        Builders.matmul (),
        Search.cache_misses ~params:[ ("n", 12) ] (),
        2 );
      ( "matmul/parallel",
        Builders.matmul (),
        Search.parallel_time ~procs:4 ~params:[ ("n", 8) ] (),
        2 );
      ( "stencil/parallel",
        stencil (),
        Search.parallel_time ~procs:4 ~params:[ ("n", 8) ] (),
        2 );
    ]

(* The engine is an optimization of [Search.best], not a different search:
   same beam, same moves, same total candidate order, so the best score and
   the winner's canonical sequence must coincide. (The raw spelling may
   differ when a memoized equal-scoring candidate is picked.) *)
let test_agrees_with_reference () =
  List.iter
    (fun (label, nest, objective, steps) ->
      match
        ( Search.best ~beam:4 ~steps nest objective,
          Engine.search ~beam:4 ~steps ~domains:1 nest objective )
      with
      | None, None -> ()
      | Some _, None | None, Some _ ->
        Alcotest.failf "%s: engines disagree on scoreability" label
      | Some old_, Some new_ ->
        Alcotest.(check (float 0.0))
          (label ^ ": same best score") old_.Search.score new_.Engine.score;
        Alcotest.check seq_testable
          (label ^ ": same canonical winner")
          (Sequence.reduce old_.Search.sequence)
          new_.Engine.canonical)
    (Lazy.force cases)

(* Parallel evaluation must not change the answer: order-preserving merge
   plus the total candidate order make any domain count bit-identical. *)
let test_parallel_deterministic () =
  List.iter
    (fun (label, nest, objective, steps) ->
      match
        ( Engine.search ~beam:4 ~steps ~domains:1 nest objective,
          Engine.search ~beam:4 ~steps ~domains:4 nest objective )
      with
      | None, None -> ()
      | Some _, None | None, Some _ ->
        Alcotest.failf "%s: domain count changed scoreability" label
      | Some seq_, Some par_ ->
        Alcotest.check seq_testable
          (label ^ ": same sequence") seq_.Engine.sequence par_.Engine.sequence;
        Alcotest.check seq_testable
          (label ^ ": same canonical") seq_.Engine.canonical
          par_.Engine.canonical;
        Alcotest.(check (float 0.0))
          (label ^ ": same score") seq_.Engine.score par_.Engine.score;
        check_bool (label ^ ": same transformed nest") true
          (compare seq_.Engine.result.Itf_core.Framework.nest
             par_.Engine.result.Itf_core.Framework.nest
          = 0))
    (Lazy.force cases)

(* A two-step search revisits transformations constantly (reversal twice is
   the identity, interchange pairs cancel, ...): the canonical-sequence
   cache must be hit and the incremental prefix states must save template
   applications relative to the from-root replays of [Search.best]. *)
let test_caches_and_savings () =
  let nest = column_major () in
  let objective = Search.cache_misses ~params:[ ("n", 24) ] () in
  let old_ =
    match Search.best ~beam:4 ~steps:2 nest objective with
    | Some o -> o
    | None -> Alcotest.fail "reference search returned nothing"
  in
  let new_ =
    match Engine.search ~beam:4 ~steps:2 ~domains:1 nest objective with
    | Some o -> o
    | None -> Alcotest.fail "engine returned nothing"
  in
  let s = new_.Engine.stats in
  check_bool "legality cache hit" true (s.Itf_opt.Stats.legality_cache_hits > 0);
  check_bool "score cache hit" true (s.Itf_opt.Stats.score_cache_hits > 0);
  check_bool "saved template applications" true
    (s.Itf_opt.Stats.template_applications_saved > 0);
  check_bool
    (Printf.sprintf "fewer template applications (%d < %d)"
       s.Itf_opt.Stats.template_applications old_.Search.checked_templates)
    true
    (s.Itf_opt.Stats.template_applications < old_.Search.checked_templates);
  check_bool "explored something" true (s.Itf_opt.Stats.nodes_explored > 10)

(* Tier-0-only search never simulates: the estimate is its exact-tier
   score. Its winner must still be a legal transformation, and its score
   the estimate of the winner's own result. *)
let test_tier0_only () =
  let params = [ ("n", 8) ] in
  List.iter
    (fun (label, spec, objective) ->
      let nest = Builders.matmul () in
      match
        Engine.search ~beam:4 ~steps:2 ~domains:1 ~tier0:spec ~tier0_only:true
          nest objective
      with
      | None -> Alcotest.failf "%s: tier0-only search returned nothing" label
      | Some o -> (
        check_int (label ^ ": no exact evaluation") 0
          o.Engine.stats.Itf_opt.Stats.objective_evaluations;
        match Itf_core.Framework.apply nest o.Engine.sequence with
        | Error _ -> Alcotest.failf "%s: winner does not re-apply" label
        | Ok r ->
          check_bool (label ^ ": same transformed nest") true
            (compare r.Itf_core.Framework.nest
               o.Engine.result.Itf_core.Framework.nest
            = 0);
          Alcotest.(check (float 0.0))
            (label ^ ": score is the winner's estimate")
            (Itf_opt.Costmodel.make spec r).Itf_opt.Costmodel.score
            o.Engine.score))
    [
      ( "locality",
        Itf_opt.Costmodel.Locality
          {
            config =
              { Itf_machine.Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 };
            elem_bytes = 8;
            params;
          },
        Search.cache_misses ~params () );
      ( "parallel",
        Itf_opt.Costmodel.Parallel { procs = 4; spawn_overhead = 2.0; params },
        Search.parallel_time ~procs:4 ~params () );
    ]

(* The domain pool is order-preserving and exception-safe. *)
let test_pool_map () =
  let pool = Itf_opt.Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Itf_opt.Pool.shutdown pool)
    (fun () ->
      let input = Array.init 100 Fun.id in
      let out = Itf_opt.Pool.map pool (fun x -> x * x) input in
      Alcotest.(check (array int))
        "order preserved"
        (Array.map (fun x -> x * x) input)
        out;
      check_int "empty input" 0 (Array.length (Itf_opt.Pool.map pool Fun.id [||]));
      match Itf_opt.Pool.map pool (fun x -> if x = 5 then failwith "boom" else x) input with
      | _ -> Alcotest.fail "exception not propagated"
      | exception Failure msg -> Alcotest.(check string) "exception" "boom" msg)

let () =
  Alcotest.run "search_engine"
    [
      ( "engine",
        [
          Alcotest.test_case "agrees with reference search" `Quick
            test_agrees_with_reference;
          Alcotest.test_case "parallel is deterministic" `Quick
            test_parallel_deterministic;
          Alcotest.test_case "caches hit, work saved" `Quick
            test_caches_and_savings;
          Alcotest.test_case "tier0-only: no simulation, legal winner" `Quick
            test_tier0_only;
          Alcotest.test_case "pool map" `Quick test_pool_map;
        ] );
    ]
