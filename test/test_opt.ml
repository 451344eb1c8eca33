(* Tests for the automatic transformation search (lib/opt). *)

open Itf_ir
module Search = Itf_opt.Search
module Template = Itf_core.Template
module Framework = Itf_core.Framework

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_moves_generated () =
  let nest = Builders.matmul () in
  let ms = Search.moves nest ~depth:3 in
  check_bool "has interchanges" true
    (List.exists (function Template.Reverse_permute _ -> true | _ -> false) ms);
  check_bool "has parallelize" true
    (List.exists (function Template.Parallelize _ -> true | _ -> false) ms);
  check_bool "has blocks" true
    (List.exists (function Template.Block _ -> true | _ -> false) ms);
  check_bool "has coalesce" true
    (List.exists (function Template.Coalesce _ -> true | _ -> false) ms);
  check_bool "all depth-compatible" true
    (List.for_all (fun t -> Template.input_depth t = 3) ms)

(* A column-major traversal: the optimizer should discover interchange. *)
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

let test_search_finds_interchange_for_locality () =
  let nest = column_major () in
  let objective = Search.cache_misses ~params:[ ("n", 48) ] () in
  match Search.best ~beam:4 ~steps:1 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { sequence; score; explored; result; _ } ->
    check_bool "explored several candidates" true (explored > 5);
    let baseline = objective (Framework.apply_exn nest []) in
    check_bool
      (Printf.sprintf "improved: %.0f -> %.0f misses" baseline score)
      true
      (score < baseline /. 2.);
    check_bool "found a reordering move" true (sequence <> []);
    (* winner must still be semantically equivalent *)
    check_bool "winner is equivalent" true
      (Builders.equivalent ~params:[ ("n", 12) ] ~orders:[ `Forward ] nest
         result.Framework.nest)

let test_search_finds_parallelism () =
  let nest = Builders.matmul () in
  let objective = Search.parallel_time ~procs:8 ~params:[ ("n", 12) ] () in
  match Search.best ~beam:4 ~steps:1 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { sequence; score; _ } ->
    let baseline = objective (Framework.apply_exn nest []) in
    check_bool
      (Printf.sprintf "parallel time improved: %.0f -> %.0f" baseline score)
      true
      (score < baseline /. 4.);
    (* it must have parallelized something that is legal: matmul's only
       dependence is carried by k, so i or j (or both via two steps) *)
    check_bool "includes a parallelize" true
      (List.exists
         (function Template.Parallelize _ -> true | _ -> false)
         sequence)

let test_search_never_worse_than_identity () =
  (* On a nest with no improving move (already row-major, sequential
     objective), the empty sequence must win or tie. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]
  in
  let objective = Search.cache_misses ~params:[ ("n", 64) ] () in
  match Search.best ~beam:3 ~steps:1 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { score; _ } ->
    let baseline = objective (Framework.apply_exn nest []) in
    check_bool "no regression" true (score <= baseline)

let test_search_respects_legality () =
  (* A loop-carried dependence on the only loop: parallelizing it would be
     fastest but is illegal; the optimizer must not pick it. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i" ] },
            Expr.Load { array = "a"; index = [ Expr.(sub (var "i") (int 1)) ] } );
      ]
  in
  let objective = Search.parallel_time ~procs:8 ~params:[ ("n", 32) ] () in
  match Search.best ~beam:4 ~steps:2 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { result; _ } ->
    check_bool "no pardo in the winner" true
      (List.for_all
         (fun (l : Nest.loop) -> l.Nest.kind = Nest.Do)
         result.Framework.nest.Nest.loops)

let test_explored_counter () =
  let nest = column_major () in
  let objective = Search.cache_misses ~params:[ ("n", 16) ] () in
  match Search.best ~beam:2 ~steps:2 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { explored; _ } -> check_bool "counter grows" true (explored > 10)

let test_block_sizes_option () =
  let nest = column_major () in
  let ms = Search.moves ~block_sizes:[ 16 ] nest ~depth:2 in
  let sizes =
    List.filter_map
      (function
        | Template.Block { bsize; _ } -> Expr.to_int bsize.(0)
        | _ -> None)
      ms
  in
  check_bool "only requested block size" true
    (sizes <> [] && List.for_all (( = ) 16) sizes);
  check_int "no blocks above depth 3" 0
    (List.length
       (List.filter
          (function Template.Block _ -> true | _ -> false)
          (Search.moves nest ~depth:4)))

(* Every objective instance reuses one per-domain scratch slot: serve
   builds an instance per request, so per-instance domain-local keys would
   grow every domain's key table — and keep each instance's environment
   and cache alive — for the life of the process. 2000 fresh instances,
   each evaluated once without the score memo, must leave live words
   flat. *)
let test_objective_scratch_flat () =
  let result =
    match Framework.apply (column_major ()) [] with
    | Ok r -> r
    | Error _ -> Alcotest.fail "identity is legal"
  in
  let eval () =
    ignore (Search.cache_misses ~memo:false ~params:[ ("n", 4) ] () result);
    ignore
      (Search.parallel_time ~memo:false ~procs:2 ~params:[ ("n", 4) ] () result)
  in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  for _ = 1 to 50 do eval () done;
  let before = live () in
  for _ = 1 to 2000 do eval () done;
  let after = live () in
  check_bool
    (Printf.sprintf "live words flat over 2000 instances (%d -> %d)" before
       after)
    true
    (after - before < 2000 * 20)

let () =
  Alcotest.run "opt"
    [
      ( "search",
        [
          Alcotest.test_case "move generation" `Quick test_moves_generated;
          Alcotest.test_case "locality: finds interchange" `Quick
            test_search_finds_interchange_for_locality;
          Alcotest.test_case "parallelism: finds pardo" `Quick
            test_search_finds_parallelism;
          Alcotest.test_case "never worse than identity" `Quick
            test_search_never_worse_than_identity;
          Alcotest.test_case "respects legality" `Quick test_search_respects_legality;
          Alcotest.test_case "explored counter" `Quick test_explored_counter;
          Alcotest.test_case "block size option" `Quick test_block_sizes_option;
          Alcotest.test_case "objective scratch does not grow per instance"
            `Quick test_objective_scratch_flat;
        ] );
    ]
