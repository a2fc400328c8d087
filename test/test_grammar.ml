(* Grammar substrate tests: construction, analyses, left-recursion
   detection, derivation checker, trees. *)

open Costar_grammar
open Symbols

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let g1 =
  (* S -> A c | A d ; A -> a A | b *)
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
      ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
    ]

let nt g name =
  match Grammar.nonterminal_of_name g name with
  | Some x -> x
  | None -> Alcotest.failf "unknown nonterminal %s" name

let tm g name =
  match Grammar.terminal_of_name g name with
  | Some a -> a
  | None -> Alcotest.failf "unknown terminal %s" name

let test_sizes () =
  check_int "nonterminals" 2 (Grammar.num_nonterminals g1);
  check_int "terminals" 4 (Grammar.num_terminals g1);
  check_int "productions" 4 (Grammar.num_productions g1);
  check_int "max rhs len" 2 (Grammar.max_rhs_len g1)

let test_prods_of () =
  check_int "S alternatives" 2 (List.length (Grammar.prods_of g1 (nt g1 "S")));
  check_int "A alternatives" 2 (List.length (Grammar.prods_of g1 (nt g1 "A")));
  (* grammar order is preserved *)
  match Grammar.rhss_of g1 (nt g1 "S") with
  | [ [ NT _; T c ]; [ NT _; T d ] ] ->
    check "first alt is c" true (c = tm g1 "c");
    check "second alt is d" true (d = tm g1 "d")
  | _ -> Alcotest.fail "unexpected rhss for S"

let test_nullable_first_follow () =
  let a = Analysis.make g1 in
  check "S not nullable" false (Analysis.nullable a (nt g1 "S"));
  check "A not nullable" false (Analysis.nullable a (nt g1 "A"));
  let first_s = Analysis.first a (nt g1 "S") in
  check "first(S) = {a,b}" true
    (Bitset.elements first_s = List.sort compare [ tm g1 "a"; tm g1 "b" ]);
  let follow_a = Analysis.follow a (nt g1 "A") in
  check "follow(A) = {c,d}" true
    (Bitset.elements follow_a = List.sort compare [ tm g1 "c"; tm g1 "d" ]);
  check "end in follow(S)" true (Analysis.follow_end a (nt g1 "S"));
  check "end not in follow(A)" false (Analysis.follow_end a (nt g1 "A"))

let test_nullable_chain () =
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.n "B" ] ]);
        ("A", [ []; [ Grammar.t "a" ] ]);
        ("B", [ [ Grammar.n "A" ] ]);
      ]
  in
  let a = Analysis.make g in
  check "A nullable" true (Analysis.nullable a (nt g "A"));
  check "B nullable" true (Analysis.nullable a (nt g "B"));
  check "S nullable" true (Analysis.nullable a (nt g "S"));
  (* endable: B ends S; A ends via B, and also via S -> A B with B nullable *)
  check "B endable" true (Analysis.follow_end a (nt g "B"));
  check "A endable" true (Analysis.follow_end a (nt g "A"))

let test_callers () =
  let a = Analysis.make g1 in
  let callers_a = Analysis.callers a (nt g1 "A") in
  (* A occurs in S -> A c, S -> A d, A -> a A *)
  check_int "A occurrences" 3 (List.length callers_a)

let test_reachable_productive () =
  let g =
    Grammar.define ~allow_undefined:true ~start:"S"
      [
        ("S", [ [ Grammar.t "x" ] ]);
        ("Dead", [ [ Grammar.t "y" ] ]);
        ("Loop", [ [ Grammar.n "Loop" ] ]);
      ]
  in
  let a = Analysis.make g in
  check "S reachable" true (Analysis.reachable a (nt g "S"));
  check "Dead unreachable" false (Analysis.reachable a (nt g "Dead"));
  check "S productive" true (Analysis.productive a (nt g "S"));
  check "Loop non-productive" false (Analysis.productive a (nt g "Loop"))

let test_left_recursion_direct () =
  let g =
    Grammar.define ~start:"E"
      [ ("E", [ [ Grammar.n "E"; Grammar.t "+" ]; [ Grammar.t "n" ] ]) ]
  in
  match Left_recursion.check g with
  | Error [ x ] -> check "E is left-recursive" true (x = nt g "E")
  | _ -> Alcotest.fail "expected left recursion on E"

let test_left_recursion_indirect_nullable () =
  (* A -> B a ; B -> C ; C -> eps | A b : A -> B -> C -> A through a
     nullable prefix (C's alternatives start with A directly). *)
  let g =
    Grammar.define ~start:"A"
      [
        ("A", [ [ Grammar.n "B"; Grammar.t "a" ] ]);
        ("B", [ [ Grammar.n "C" ] ]);
        ("C", [ []; [ Grammar.n "A"; Grammar.t "b" ] ]);
      ]
  in
  match Left_recursion.check g with
  | Error xs -> check_int "three nts on the cycle" 3 (List.length xs)
  | Ok () -> Alcotest.fail "expected left recursion"

let test_not_left_recursive () =
  check "fig2 grammar is LR-free" true (Left_recursion.check g1 = Ok ());
  (* Right recursion is fine. *)
  let g =
    Grammar.define ~start:"L"
      [ ("L", [ [ Grammar.t "x"; Grammar.n "L" ]; [] ]) ]
  in
  check "right recursion ok" true (Left_recursion.check g = Ok ())

let test_hidden_left_recursion () =
  (* S -> N S x | y ; N -> eps : nullable N hides the S-S loop. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "N"; Grammar.n "S"; Grammar.t "x" ]; [ Grammar.t "y" ] ]);
        ("N", [ [] ]);
      ]
  in
  match Left_recursion.check g with
  | Error xs -> check "S on cycle" true (List.mem (nt g "S") xs)
  | Ok () -> Alcotest.fail "expected hidden left recursion to be caught"

let test_witness_kinds () =
  let witness g name =
    let anl = Analysis.make g in
    Left_recursion.witness g anl (nt g name)
  in
  let names g xs = List.map (Grammar.nonterminal_name g) xs in
  (* Direct: one edge back to itself. *)
  let g =
    Grammar.define ~start:"E"
      [ ("E", [ [ Grammar.n "E"; Grammar.t "+" ]; [ Grammar.t "n" ] ]) ]
  in
  (match witness g "E" with
  | Some (Left_recursion.Direct, cycle) ->
    Alcotest.(check (list string)) "direct cycle" [ "E"; "E" ] (names g cycle)
  | _ -> Alcotest.fail "expected a direct witness");
  (* Indirect: shortest cycle through B found by BFS. *)
  let g =
    Grammar.define ~start:"A"
      [
        ("A", [ [ Grammar.n "B"; Grammar.t "x" ]; [ Grammar.t "z" ] ]);
        ("B", [ [ Grammar.n "A"; Grammar.t "y" ] ]);
      ]
  in
  (match witness g "A" with
  | Some (Left_recursion.Indirect, cycle) ->
    Alcotest.(check (list string)) "indirect cycle" [ "A"; "B"; "A" ]
      (names g cycle)
  | _ -> Alcotest.fail "expected an indirect witness");
  (* Hidden: the recursive reference sits behind a nullable prefix. *)
  let g =
    Grammar.define ~start:"S"
      [
        ( "S",
          [ [ Grammar.n "N"; Grammar.n "S"; Grammar.t "x" ]; [ Grammar.t "y" ] ]
        );
        ("N", [ []; [ Grammar.t "w" ] ]);
      ]
  in
  (match witness g "S" with
  | Some (Left_recursion.Hidden, cycle) ->
    Alcotest.(check (list string)) "hidden cycle" [ "S"; "S" ] (names g cycle)
  | _ -> Alcotest.fail "expected a hidden witness");
  (* No witness for a non-left-recursive nonterminal. *)
  let g =
    Grammar.define ~start:"L"
      [ ("L", [ [ Grammar.t "x"; Grammar.n "L" ]; [] ]) ]
  in
  check "right recursion has no witness" true (witness g "L" = None)

let test_tree_ops () =
  let tok name = Grammar.token g1 name name in
  let v =
    Tree.node (nt g1 "S")
      [
        Tree.node (nt g1 "A")
          [ Tree.leaf (tok "a"); Tree.node (nt g1 "A") [ Tree.leaf (tok "b") ] ];
        Tree.leaf (tok "d");
      ]
  in
  check_int "size" 6 (Tree.size v);
  check_int "depth" 4 (Tree.depth v);
  check_int "width" 3 (Tree.width v);
  let y = Tree.yield v in
  Alcotest.(check (list string))
    "yield" [ "a"; "b"; "d" ]
    (List.map Token.lexeme y);
  check "derives" true (Derivation.recognizes_start g1 y v);
  (* Perturbed tree must fail the checker. *)
  let bad = Tree.node (nt g1 "S") [ Tree.leaf (tok "d") ] in
  check "bad tree rejected" false
    (Derivation.recognizes_start g1 [ tok "d" ] bad);
  (* DOT export mentions every label *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let dot = Tree.to_dot g1 v in
  check "dot has S" true (contains dot "\"S\"")

(* The flat walks against recursive reference versions over [Tree.view]
   (the boxed-tree definitions), on random trees over [g1] that mix nodes,
   leaves and every kind of error marker. *)
module Naive = struct
  let kids v =
    match Tree.view v with
    | Tree.Leaf _ -> []
    | Tree.Node (_, k) | Tree.Error (_, k) -> k

  let rec size v = List.fold_left (fun a k -> a + size k) 1 (kids v)

  let rec depth v = 1 + List.fold_left (fun a k -> max a (depth k)) 0 (kids v)

  let rec width v =
    match Tree.view v with
    | Tree.Leaf _ -> 1
    | _ -> List.fold_left (fun a k -> a + width k) 0 (kids v)

  let rec yield v =
    match Tree.view v with
    | Tree.Leaf tok -> [ tok ]
    | _ -> List.concat_map yield (kids v)

  let rank v =
    match Tree.view v with Tree.Leaf _ -> 0 | Tree.Node _ -> 1 | Tree.Error _ -> 2

  let rec compare v1 v2 =
    match Tree.view v1, Tree.view v2 with
    | Tree.Leaf t1, Tree.Leaf t2 ->
      let c = Int.compare t1.Token.term t2.Token.term in
      if c <> 0 then c else String.compare t1.Token.lexeme t2.Token.lexeme
    | Tree.Node (x1, k1), Tree.Node (x2, k2) ->
      let c = Int.compare x1 x2 in
      if c <> 0 then c else List.compare compare k1 k2
    | Tree.Error (s1, k1), Tree.Error (s2, k2) ->
      let c = Option.compare compare_symbol s1 s2 in
      if c <> 0 then c else List.compare compare k1 k2
    | _ -> Int.compare (rank v1) (rank v2)

  let rec pp g ppf v =
    match Tree.view v with
    | Tree.Leaf tok -> Format.fprintf ppf "'%s'" tok.Token.lexeme
    | Tree.Node (x, k) -> node g ppf (Grammar.nonterminal_name g x) k
    | Tree.Error (None, k) -> node g ppf "ERROR" k
    | Tree.Error (Some s, k) -> node g ppf ("ERROR:" ^ Grammar.symbol_name g s) k

  and node g ppf label k =
    Format.fprintf ppf "@[<hov 1>(%s%a)@]" label
      (fun ppf -> List.iter (fun v -> Format.fprintf ppf "@ %a" (pp g) v))
      k

  let to_dot g v =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "digraph parse_tree {\n  node [shape=box];\n";
    let ctr = ref 0 in
    let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
    let rec go v =
      incr ctr;
      let id = !ctr in
      let node label attrs =
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"%s\"%s];\n" id (escape label) attrs)
      in
      (match Tree.view v with
      | Tree.Leaf tok -> node tok.Token.lexeme ", shape=ellipse"
      | Tree.Node (x, _) -> node (Grammar.nonterminal_name g x) ""
      | Tree.Error (at, _) ->
        node
          (match at with
          | None -> "ERROR"
          | Some s -> "ERROR: " ^ Grammar.symbol_name g s)
          ", shape=diamond, color=red");
      List.iter
        (fun k ->
          let kid = go k in
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id kid))
        (kids v);
      id
    in
    ignore (go v);
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  (* A copy rebuilt through the constructors. *)
  let rec copy v =
    match Tree.view v with
    | Tree.Leaf tok -> Tree.leaf tok
    | Tree.Node (x, k) -> Tree.node x (List.map copy k)
    | Tree.Error (s, k) -> Tree.error s (List.map copy k)
end

let gen_tree =
  let open QCheck.Gen in
  let n_nts = Grammar.num_nonterminals g1 and n_terms = Grammar.num_terminals g1 in
  let leaf =
    map2
      (fun a l -> Tree.leaf (Token.make a l))
      (int_bound (n_terms - 1))
      (oneofl [ "a"; "b"; "x\"y" ])
  in
  let marker =
    oneof
      [
        return None;
        map (fun a -> Some (T a)) (int_bound (n_terms - 1));
        map (fun x -> Some (NT x)) (int_bound (n_nts - 1));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 4,
                 int_bound 3 >>= fun k ->
                 list_repeat k (self (n / (k + 1))) >>= fun kids ->
                 frequency
                   [
                     (3, map (fun x -> Tree.node x kids) (int_bound (n_nts - 1)));
                     (1, map (fun s -> Tree.error s kids) marker);
                   ] );
             ])

let prop_flat_walks =
  QCheck.Test.make ~count:500 ~name:"flat tree walks = recursive reference"
    (QCheck.make
       ~print:(fun (v, _) -> Tree.to_string g1 v)
       QCheck.Gen.(pair gen_tree gen_tree))
    (fun (v, w) ->
      let sign c = Int.compare c 0 in
      Tree.size v = Naive.size v
      && Tree.depth v = Naive.depth v
      && Tree.width v = List.length (Naive.yield v)
      && List.equal Token.equal (Tree.yield v) (Naive.yield v)
      && String.equal (Tree.to_string g1 v) (Fmt.str "%a" (Naive.pp g1) v)
      && String.equal (Tree.to_dot g1 v) (Naive.to_dot g1 v)
      && sign (Tree.compare v w) = sign (Naive.compare v w)
      && Tree.equal v (Naive.copy v)
      && Tree.equal v w = (Naive.compare v w = 0))

(* Tree.pp runs its own copy of Format's layout engine; the reference is
   the Format printer [Naive.pp].  Both are fed into a fresh
   buffer formatter with ["%a@."], so the tree starts a line, over random
   trees with error markers, random geometry (margins 4-200, and a few
   far wider for the chains), chains thousands of levels deep (far past
   [max_indent]), and leaves padded so that the root box exactly fills,
   or just misses, the line. *)
type shape =
  | L of string
  | N of int * shape list
  | E of symbol option * shape list

let rec shape_tree = function
  | L s -> Tree.leaf (Token.make 0 s)
  | N (x, k) -> Tree.node x (List.map shape_tree k)
  | E (s, k) -> Tree.error s (List.map shape_tree k)

let shape_label = function
  | N (x, _) -> Grammar.nonterminal_name g1 x
  | E (None, _) -> "ERROR"
  | E (Some s, _) -> "ERROR:" ^ Grammar.symbol_name g1 s
  | L s -> s

(* The width of the shape printed on one line. *)
let rec flat_width = function
  | L s -> String.length s + 2
  | (N (_, k) | E (_, k)) as v ->
    List.fold_left (fun a c -> a + 1 + flat_width c) (String.length (shape_label v) + 2) k

(* Lengthen the last leaf by [n] characters (no-op without leaves). *)
let rec pad_last n = function
  | L s -> Some (L (s ^ String.make n 'p'))
  | N (x, k) -> Option.map (fun k -> N (x, k)) (pad_kids n k)
  | E (s, k) -> Option.map (fun k -> E (s, k)) (pad_kids n k)

and pad_kids n k =
  match List.rev k with
  | [] -> None
  | last :: rest -> (
    match pad_last n last with
    | Some last -> Some (List.rev (last :: rest))
    | None -> Option.map (fun r -> List.rev (last :: r)) (pad_kids n (List.rev rest)))

(* Mostly short lexemes, now and then one longer than a 1920-byte output
   chunk; the letters vary, so a byte copied twice or dropped shows. *)
let gen_lexeme =
  QCheck.Gen.(
    map3
      (fun k q c ->
        let s = String.init k (fun i -> Char.chr (97 + ((c + i) mod 26))) in
        if q then "\"" ^ s else s)
      (frequency [ (40, int_bound 12); (1, int_range 1900 4500) ])
      (int_bound 4 >|= ( = ) 0)
      (int_bound 25))

let gen_shape =
  let open QCheck.Gen in
  let n_nts = Grammar.num_nonterminals g1 and n_terms = Grammar.num_terminals g1 in
  let marker =
    oneof
      [
        return None;
        map (fun a -> Some (T a)) (int_bound (n_terms - 1));
        map (fun x -> Some (NT x)) (int_bound (n_nts - 1));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then map (fun s -> L s) gen_lexeme
         else
           frequency
             [
               (1, map (fun s -> L s) gen_lexeme);
               ( 4,
                 int_bound 4 >>= fun k ->
                 list_repeat k (self (n / (k + 1))) >>= fun kids ->
                 frequency
                   [
                     (3, map (fun x -> N (x, kids)) (int_bound (n_nts - 1)));
                     (1, map (fun s -> E (s, kids)) marker);
                   ] );
             ])

let render ~margin ~max_indent pp v =
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  Format.pp_set_geometry ppf ~max_indent ~margin;
  Format.fprintf ppf "%a@." pp v;
  Buffer.contents b

let same_render ~margin ~max_indent v =
  String.equal
    (render ~margin ~max_indent (Tree.pp g1) v)
    (render ~margin ~max_indent (Naive.pp g1) v)

(* A max_indent in [2, margin - 1] picked by [k]. *)
let max_indent_of margin k = 2 + (k mod (margin - 2))

let prop_pp_reference =
  QCheck.Test.make ~count:300 ~name:"Tree.pp = Format reference (random geometry)"
    (QCheck.make
       ~print:(fun (v, m, k, d) ->
         Printf.sprintf "margin %d, max_indent %d, fill %+d: %s" m (max_indent_of m k) d
           (Tree.to_string g1 (shape_tree v)))
       QCheck.Gen.(
         quad gen_shape
           (frequency [ (3, int_range 4 24); (2, int_range 25 200) ])
           (int_bound 1000) (int_range (-2) 1)))
    (fun (v, margin, k, delta) ->
      (* Pad so the whole tree is [delta] characters wider than the line. *)
      let v =
        Option.value ~default:v (pad_last (max 0 (margin + delta - flat_width v)) v)
      in
      let t = shape_tree v in
      (* Eight consecutive margins: each box and break crosses the line's
         end at one of them somewhere in the corpus. *)
      List.for_all
        (fun m -> same_render ~margin:m ~max_indent:(max_indent_of m k) t)
        (List.init 8 (fun i -> min 200 (margin + i)))
      && String.equal (Tree.to_string g1 t) (Fmt.str "%a" (Naive.pp g1) t))

(* A chain [d] levels deep built straight into an event buffer: level [k]
   is a node (or an error marker) over [before k], the next level, and
   [after k]. *)
let chain levels inner =
  let d = Array.length levels in
  let b = Tree.Events.create 16 in
  let toks = ref [] and ntok = ref 0 and ev = ref 0 in
  let leaf s =
    toks := Token.make 0 s :: !toks;
    Tree.Events.leaf b !ev !ntok;
    incr ntok;
    incr ev
  in
  let firsts = Array.make d 0 in
  Array.iteri
    (fun k (_, before, _) ->
      firsts.(k) <- !ev;
      List.iter leaf before)
    levels;
  leaf inner;
  for k = d - 1 downto 0 do
    let lab, _, after = levels.(k) in
    List.iter leaf after;
    (match lab with
    | Some x -> Tree.Events.node b !ev x ~first:firsts.(k)
    | None -> Tree.Events.error b !ev (Some (NT 0)) ~first:firsts.(k));
    incr ev
  done;
  Tree.Events.seal b (Word.of_tokens (List.rev !toks)) !ev

let gen_chain =
  let open QCheck.Gen in
  let n_nts = Grammar.num_nonterminals g1 in
  let level =
    triple
      (frequency [ (9, map Option.some (int_bound (n_nts - 1))); (1, return None) ])
      (list_size (int_bound 1) gen_lexeme)
      (list_size (int_bound 1) gen_lexeme)
  in
  int_range 2000 2600 >>= fun d ->
  map2 (fun levels inner -> chain (Array.of_list levels) inner) (list_repeat d level) gen_lexeme

let prop_pp_deep =
  QCheck.Test.make ~count:20 ~name:"Tree.pp = Format reference (chains past max_indent)"
    (QCheck.make
       ~print:(fun (v, m, k) ->
         Printf.sprintf "margin %d, max_indent %d, depth %d" m (max_indent_of m k) (Tree.depth v))
       QCheck.Gen.(
         triple gen_chain
           (* A wide margin indents past an output chunk. *)
           (frequency [ (2, int_range 4 200); (1, int_range 1900 4000) ])
           (int_bound 1000)))
    (fun (t, margin, k) ->
      same_render ~margin ~max_indent:(max_indent_of margin k) t
      && String.equal (Tree.to_string g1 t) (Fmt.str "%a" (Naive.pp g1) t))

(* [Tree.depth] and [Tree.width] loop over the event range; chains up to
   100k levels deep, with leaves on either side of each level, against
   the recursive reference. *)
let prop_deep_walks =
  QCheck.Test.make ~count:12 ~name:"Tree.depth/width = recursive reference (chains to 100k deep)"
    (QCheck.make
       ~print:(fun v -> Printf.sprintf "depth %d, width %d" (Naive.depth v) (Naive.width v))
       QCheck.Gen.(
         let n_nts = Grammar.num_nonterminals g1 in
         let level =
           triple
             (frequency [ (9, map Option.some (int_bound (n_nts - 1))); (1, return None) ])
             (list_size (int_bound 2) gen_lexeme)
             (list_size (int_bound 2) gen_lexeme)
         in
         frequency [ (1, int_range 90_000 100_000); (2, int_range 1 3000) ] >>= fun d ->
         map2 (fun levels inner -> chain (Array.of_list levels) inner) (list_repeat d level) gen_lexeme))
    (fun v -> Tree.depth v = Naive.depth v && Tree.width v = Naive.width v)

(* Indentation wider than an output chunk: a bare chain 3000 deep climbs
   one column per level up to a maximum indentation of 2400. *)
let test_pp_wide_indent () =
  let v = chain (Array.make 3000 (Some (nt g1 "S"), [], [])) "x" in
  check "same as the Format printer" true (same_render ~margin:2500 ~max_indent:2400 v)

let test_define_errors () =
  check "duplicate rule rejected" true
    (try
       ignore
         (Grammar.define ~start:"S" [ ("S", [ [] ]); ("S", [ [ Grammar.t "x" ] ]) ]);
       false
     with Invalid_argument _ -> true);
  check "undefined nonterminal rejected" true
    (try
       ignore (Grammar.define ~start:"S" [ ("S", [ [ Grammar.n "T" ] ]) ]);
       false
     with Invalid_argument _ -> true);
  check "undefined start rejected" true
    (try
       ignore (Grammar.define ~start:"Z" [ ("S", [ [] ]) ]);
       false
     with Invalid_argument _ -> true)

let test_pool () =
  let p = Pool.create () in
  let a = Pool.intern p "alpha" in
  let b = Pool.intern p "beta" in
  check_int "alpha again" a (Pool.intern p "alpha");
  check "distinct ids" true (a <> b);
  Alcotest.(check string) "name roundtrip" "beta" (Pool.name p b);
  check_int "size" 2 (Pool.size p);
  check "find missing" true (Pool.find p "gamma" = None);
  check "out of range" true
    (try
       ignore (Pool.name p 99);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "sizes" `Quick test_sizes;
    Alcotest.test_case "prods_of order" `Quick test_prods_of;
    Alcotest.test_case "nullable/first/follow" `Quick test_nullable_first_follow;
    Alcotest.test_case "nullable chain + endable" `Quick test_nullable_chain;
    Alcotest.test_case "callers map" `Quick test_callers;
    Alcotest.test_case "reachable/productive" `Quick test_reachable_productive;
    Alcotest.test_case "direct left recursion" `Quick test_left_recursion_direct;
    Alcotest.test_case "indirect left recursion" `Quick
      test_left_recursion_indirect_nullable;
    Alcotest.test_case "no false positives" `Quick test_not_left_recursive;
    Alcotest.test_case "hidden left recursion" `Quick test_hidden_left_recursion;
    Alcotest.test_case "left-recursion witnesses" `Quick test_witness_kinds;
    Alcotest.test_case "tree operations" `Quick test_tree_ops;
    QCheck_alcotest.to_alcotest prop_flat_walks;
    QCheck_alcotest.to_alcotest prop_pp_reference;
    QCheck_alcotest.to_alcotest prop_pp_deep;
    QCheck_alcotest.to_alcotest prop_deep_walks;
    Alcotest.test_case "Tree.pp indents past an output chunk" `Quick test_pp_wide_indent;
    Alcotest.test_case "define errors" `Quick test_define_errors;
    Alcotest.test_case "interning pool" `Quick test_pool;
  ]

let () = Alcotest.run "costar_grammar" [ ("grammar", suite) ]
