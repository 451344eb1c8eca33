(* Seeded generator of the benchmark's loop nests, drawn from the paper's
   kernels. Every text carries a [salt] constant in its body: two salts
   give two distinct nests (distinct intern ids, so no memo shares work
   between them) with the same access pattern, hence the same simulated
   scores. The seed picks the loop-variable names and the salts, never a
   bound or a subscript, so a workload's scores do not move with it. *)

type kind =
  | Stencil  (** Fig. 1: 5-point averaging *)
  | Matmul of string  (** Fig. 6, loops in the given order of i, j, k *)
  | Lu
  | Guarded  (** Fig. 2: guarded body *)
  | Triangular
  | Transpose
  | Flattened  (** [a(i + n * j)]: subscript leaves the objectives' box *)
  | Strided  (** [x(3 * i + 1, j)]: likewise *)

let matmul_orders = [ "ijk"; "ikj"; "jik"; "jki"; "kij"; "kji" ]

(* The scored kernels: every request of a round draws from this list. *)
let catalogue =
  [ Stencil ] @ List.map (fun o -> Matmul o) matmul_orders
  @ [ Lu; Guarded; Triangular; Transpose ]

(* The kernels that hit the fault in the objectives' array declarations. *)
let faulty = [ Flattened; Strided ]

let name = function
  | Stencil -> "stencil"
  | Matmul o -> "matmul_" ^ o
  | Lu -> "lu"
  | Guarded -> "guarded"
  | Triangular -> "triangular"
  | Transpose -> "transpose"
  | Flattened -> "flattened"
  | Strided -> "strided"

let var_sets =
  [| ("i", "j", "k"); ("p", "q", "r"); ("u", "v", "w"); ("i1", "i2", "i3");
     ("x1", "x2", "x3"); ("s", "t", "z") |]

(* [text ~vars ~salt kind] is the nest source. [vars] names the three
   index variables; a kernel of depth 2 uses the first two. *)
let text ~vars:(i, j, k) ~salt kind =
  let loops ls body =
    let d = List.length ls in
    let buf = Buffer.create 256 in
    List.iteri
      (fun l (v, lo, hi) ->
        Buffer.add_string buf (String.make (2 * l) ' ');
        Printf.bprintf buf "do %s = %s, %s\n" v lo hi)
      ls;
    List.iter
      (fun s ->
        Buffer.add_string buf (String.make (2 * d) ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      body;
    for l = d - 1 downto 0 do
      Buffer.add_string buf (String.make (2 * l) ' ');
      Buffer.add_string buf "enddo\n"
    done;
    Buffer.contents buf
  in
  let p = Printf.sprintf in
  match kind with
  | Stencil ->
    loops
      [ (i, "2", "n - 1"); (j, "2", "n - 1") ]
      [
        p
          "a(%s, %s) = (a(%s, %s) + a(%s - 1, %s) + a(%s, %s - 1) + \
           a(%s + 1, %s) + a(%s, %s + 1) + %d) / 5"
          i j i j i j i j i j i j salt;
      ]
  | Matmul order ->
    let var = function 'i' -> i | 'j' -> j | _ -> k in
    loops
      (List.map (fun c -> (var c, "1", "n")) (List.of_seq (String.to_seq order)))
      [ p "c(%s, %s) = c(%s, %s) + a(%s, %s) * b(%s, %s) + %d" i j i j i k k j salt ]
  | Lu ->
    loops
      [ (k, "1", "n"); (i, k ^ " + 1", "n"); (j, k ^ " + 1", "n") ]
      [ p "a(%s, %s) = a(%s, %s) - a(%s, %s) * a(%s, %s) + %d" i j i j i k k j salt ]
  | Guarded ->
    loops
      [ (i, "2", "n - 1"); (j, "2", "n - 1") ]
      [
        p "a(%s, %s) = b(%s) + %d" i j j salt;
        p "if b(%s) > 40" j;
        p "  b(%s) = a(%s - 1, %s + 1)" j i j;
        "endif";
      ]
  | Triangular ->
    loops
      [ (i, "2", "n"); (j, "1", i ^ " - 1") ]
      [ p "x(%s) = x(%s) - l(%s, %s) * x(%s) + %d" i i i j j salt ]
  | Transpose ->
    loops
      [ (i, "1", "n"); (j, "1", "n") ]
      [ p "b(%s, %s) = a(%s, %s) + %d" j i i j salt ]
  | Flattened ->
    loops
      [ (i, "1", "n"); (j, "1", "n") ]
      [ p "a(%s + n * %s) = a(%s + n * %s) + %d" i j i j salt ]
  | Strided ->
    loops
      [ (i, "1", "n"); (j, "1", "n") ]
      [ p "y(%s, %s) = x(3 * %s + 1, %s) + %d" i j i j salt ]
