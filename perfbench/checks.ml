(* Output checks, computed apart from the search and run outside the
   timed part: legality by re-applying the winning sequence, semantics by
   running both nests under the interpreter, and the score by a memo-free
   re-simulation on the interpreted backend. *)

open Itf_ir
module Framework = Itf_core.Framework

(* Arrays referenced by a nest, with their arity. The framework keeps
   bodies and only adds scalar init statements, so the original nest's
   list also covers every transformed nest. *)
let arrays (nest : Nest.t) =
  let tbl = Hashtbl.create 8 in
  let rec expr (e : Expr.t) =
    match e with
    | Int _ | Var _ -> ()
    | Neg a -> expr a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
    | Min (a, b) | Max (a, b) ->
      expr a;
      expr b
    | Load { array; index } ->
      Hashtbl.replace tbl array (List.length index);
      List.iter expr index
    | Call (_, args) -> List.iter expr args
  in
  let rec stmt = function
    | Stmt.Store ({ array; index }, rhs) ->
      Hashtbl.replace tbl array (List.length index);
      List.iter expr index;
      expr rhs
    | Stmt.Set (_, rhs) -> expr rhs
    | Stmt.Guard { lhs; rhs; body; _ } ->
      expr lhs;
      expr rhs;
      List.iter stmt body
  in
  List.iter stmt (nest.Nest.inits @ nest.Nest.body);
  List.sort compare (Hashtbl.fold (fun a k acc -> (a, k) :: acc) tbl [])

(* Semantics are checked at a small odd [n], so blocked loops end on a
   partial block, over data that makes the Fig. 2 guard go both ways. *)
let check_n = 9

let final_arrays ~arrays ?pardo_order nest =
  let env = Itf_exec.Env.create () in
  Itf_exec.Env.set_scalar env "n" check_n;
  List.iter
    (fun (a, arity) ->
      Itf_exec.Env.declare_array env a
        (List.init arity (fun _ -> (-4, (3 * check_n) + 4)));
      let data = Itf_exec.Env.array_data env a in
      Array.iteri (fun k _ -> data.(k) <- (((k * 7919) + 13) mod 101) - 50) data)
    arrays;
  Itf_exec.Interp.run ?pardo_order env nest;
  Itf_exec.Env.snapshot env

(* [winner ~resim nest seq score] checks one search answer and returns
   the identity nest's re-simulated score. [resim] is the objective
   instantiated with the interpreted backend and [~memo:false]. *)
let winner ~resim nest seq score =
  match Framework.apply nest seq with
  | Error _ -> Error "the winning sequence is illegal when re-applied"
  | Ok res -> (
    let arrays = arrays nest in
    let expected = final_arrays ~arrays nest in
    if
      final_arrays ~arrays res.Framework.nest <> expected
      || final_arrays ~arrays ~pardo_order:`Reverse res.Framework.nest
         <> expected
    then Error "the transformed nest changes an array under the interpreter"
    else
      let again = resim res in
      if not (Float.equal again score) then
        Error
          (Printf.sprintf "score %.17g, but re-simulation gives %.17g" score
             again)
      else
        match Framework.apply nest [] with
        | Error _ -> Error "the identity sequence is illegal"
        | Ok id ->
          let identity = resim id in
          if score > identity then
            Error
              (Printf.sprintf "winner %.17g scores worse than identity %.17g"
                 score identity)
          else Ok identity)
