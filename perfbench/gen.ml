(* The seeded, well-typed query generator for never-seen shapes.

   A shape is an [int] pipeline over a captured source array: a first
   Select carrying a literal unique to the shape (so no two shapes share
   generated code, and no rewrite can drop it: it feeds every later
   value), then 0-3 operators drawn from Where, Select, SelectMany,
   Join, GroupBy, GroupByAggregate, OrderBy, Distinct, Take and Skip,
   then a sink: a collection result or a scalar (Sum, a float Sum,
   Exists, Contains).  Every literal comes from the seed, so the shapes
   differ per seed.  Sinks that raise on empty input (Min, Average,
   First) are left out, so no generated query fails. *)

module I = Expr.Infix

(* Source rows of every generated shape. *)
let rows = 1_000

type env = { rng : Random.State.t; src : int array; dim : int array }

let env ~seed ~stream =
  let rng = Random.State.make [| seed; stream; 7 |] in
  let src = Array.init rows (fun _ -> Random.State.int rng 1000) in
  let dim = Array.init 16 (fun i -> (16 * Random.State.int rng 50) + i) in
  { rng; src; dim }

let int g lo hi = lo + Random.State.int g.rng (hi - lo + 1)

let lit n = Expr.int n

(* One operator; [expand] is false once a SelectMany was drawn, so the
   row count stays within a small multiple of the input. *)
let op g ~expand (q : int Query.t) : int Query.t * bool =
  match Random.State.int g.rng 11 with
  | 0 ->
    let m = int g 2 9 in
    let r = int g 0 (m - 1) in
    Query.where (fun x -> I.(x mod lit m <> lit r)) q, expand
  | 1 ->
    let t = int g 0 600 in
    Query.where (fun x -> I.(x mod lit 1000 > lit t)) q, expand
  | 2 ->
    let a = int g 1 5 and b = int g (-50) 50 in
    Query.select (fun x -> I.((x * lit a) + lit b)) q, expand
  | 3 when expand ->
    let k = int g 1 3 in
    ( Query.select_many
        (fun x -> Query.range ~start:0 ~count:k |> Query.select (fun y -> I.(x + y)))
        q,
      false )
  | 3 | 4 ->
    let c = int g 1 9 in
    ( Query.join ~inner:(Query.of_array Ty.Int g.dim)
        ~outer_key:(fun x -> I.(x mod lit 16))
        ~inner_key:(fun y -> I.(y mod lit 16))
        ~result:(fun x y -> I.(x + (y * lit c)))
        q,
      expand )
  | 5 ->
    let m = int g 3 40 in
    ( Query.group_by (fun x -> I.(x mod lit m)) q
      |> Query.select (fun grp ->
             I.((Expr.Fst grp * lit 7) + Expr.Array_length (Expr.Snd grp))),
      expand )
  | 6 ->
    let m = int g 3 60 in
    ( Query.group_by_agg
        ~key:(fun x -> I.(x mod lit m))
        ~seed:(lit 0)
        ~step:(fun s x -> I.(s + x))
        q
      |> Query.select (fun p -> I.(Expr.Fst p + Expr.Snd p)),
      expand )
  | 7 ->
    let m = int g 5 200 in
    let order = if Random.State.bool g.rng then Query.Ascending else Query.Descending in
    Query.order_by ~order (fun x -> I.(x mod lit m)) q, expand
  | 8 ->
    let m = int g 5 40 in
    Query.distinct (Query.select (fun x -> I.(x mod lit m)) q), expand
  | 9 -> Query.take (int g 5 400) q, expand
  | _ -> Query.skip (int g 1 200) q, expand

(* Shape [id] of the stream; [id] must be unique within a run. *)
let shape g id =
  let a = int g 1 3 in
  let q0 =
    Query.of_array Ty.Int g.src |> Query.select (fun x -> I.((x * lit a) + lit id))
  in
  let rec ops q n expand =
    if n = 0 then q
    else
      let q, expand = op g ~expand q in
      ops q (n - 1) expand
  in
  let q = ops q0 (int g 0 3) true in
  let name = Printf.sprintf "g%d" id in
  match Random.State.int g.rng 5 with
  | 0 -> Shape.coll name ~rows q
  | 1 -> Shape.scalar name ~rows (Query.sum_int q)
  | 2 ->
    let c = 1.0 +. Random.State.float g.rng 2.0 in
    Shape.scalar name ~rows
      (Query.sum_by_float (fun x -> I.(Expr.Prim1 (Prim.Float_of_int, x) *. Expr.float c)) q)
  | 3 ->
    let t = int g 0 2000 in
    Shape.scalar name ~rows (Query.exists (fun x -> I.(x > lit t)) q)
  | _ -> Shape.scalar name ~rows (Query.contains (lit (int g 0 1000)) q)
