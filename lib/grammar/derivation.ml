open Symbols

let rec well_formed g v =
  match Tree.view v with
  | Tree.Leaf _ -> true
  | Tree.Node (x, kids) ->
    let roots = List.map Tree.root kids in
    (match Grammar.find_production g x roots with
    | Some _ -> true
    | None -> false)
    && List.for_all (well_formed g) kids
  | Tree.Error _ -> false

let rec tokens_equal w1 w2 =
  match w1, w2 with
  | [], [] -> true
  | t1 :: r1, t2 :: r2 -> Token.equal t1 t2 && tokens_equal r1 r2
  | _ -> false

let tree_derives g s w v =
  equal_symbol (Tree.root v) s
  && well_formed g v
  && tokens_equal (Tree.yield v) w

let forest_derives g gamma w f =
  List.length gamma = List.length f
  && List.for_all2 (fun s v -> equal_symbol (Tree.root v) s) gamma f
  && List.for_all (well_formed g) f
  && tokens_equal (Tree.yield_forest f) w

let recognizes_start g w v = tree_derives g (NT (Grammar.start g)) w v
