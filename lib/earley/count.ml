open Costar_grammar
open Costar_grammar.Symbols

(* Saturating arithmetic capped at [cap]. *)
let sat_add cap a b = min cap (a + b)
let sat_mul cap a b = min cap (a * b)

let count_trees_sym ?(cap = 2) g start w =
  let toks = Array.of_list w in
  let n = Array.length toks in
  let num_nts = Grammar.num_nonterminals g in
  (* cnt.(x).((i * (n+1)) + j) = capped number of x-rooted trees over
     w[i..j).  Computed as the least fixpoint of the obvious recursive
     equations; saturation makes the lattice finite, so iteration
     terminates even for grammars with unit/epsilon cycles (where the true
     count is infinite). *)
  let cnt = Array.init num_nts (fun _ -> Array.make ((n + 1) * (n + 1)) 0) in
  let idx i j = (i * (n + 1)) + j in
  let sym_count s i j =
    match s with
    | T a -> if j = i + 1 && toks.(i).Token.term = a then 1 else 0
    | NT x -> cnt.(x).(idx i j)
  in
  (* Number of ways the symbols [syms] span w[i..j), with current counts. *)
  let rec seq_count syms i j =
    match syms with
    | [] -> if i = j then 1 else 0
    | [ s ] -> sym_count s i j
    | s :: rest ->
      let total = ref 0 in
      for m = i to j do
        if !total < cap then
          let c1 = sym_count s i m in
          if c1 > 0 then
            total := sat_add cap !total (sat_mul cap c1 (seq_count rest m j))
      done;
      !total
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        let x = p.Grammar.lhs in
        for i = 0 to n do
          for j = i to n do
            let old = cnt.(x).(idx i j) in
            if old < cap then begin
              (* Recompute x's total over all its productions. *)
              let total = ref 0 in
              List.iter
                (fun ix ->
                  if !total < cap then
                    total :=
                      sat_add cap !total
                        (seq_count (Grammar.prod g ix).Grammar.rhs i j))
                (Grammar.prods_of g x);
              if !total > old then begin
                cnt.(x).(idx i j) <- !total;
                changed := true
              end
            end
          done
        done)
      (Grammar.prods g)
  done;
  cnt.(start).(idx 0 n)

let count_trees ?cap g w = count_trees_sym ?cap g (Grammar.start g) w

(* A reusable recognition table: derivable.(x).(i,j) for nonterminals. *)
let recognition_table g toks =
  let n = Array.length toks in
  let num_nts = Grammar.num_nonterminals g in
  let tbl = Array.init num_nts (fun _ -> Array.make ((n + 1) * (n + 1)) false) in
  let idx i j = (i * (n + 1)) + j in
  let sym_ok s i j =
    match s with
    | T a -> j = i + 1 && toks.(i).Token.term = a
    | NT x -> tbl.(x).(idx i j)
  in
  let rec seq_ok syms i j =
    match syms with
    | [] -> i = j
    | [ s ] -> sym_ok s i j
    | s :: rest ->
      let found = ref false in
      let m = ref i in
      while (not !found) && !m <= j do
        if sym_ok s i !m && seq_ok rest !m j then found := true;
        incr m
      done;
      !found
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        let x = p.Grammar.lhs in
        for i = 0 to n do
          for j = i to n do
            if (not tbl.(x).(idx i j)) && seq_ok p.Grammar.rhs i j then begin
              tbl.(x).(idx i j) <- true;
              changed := true
            end
          done
        done)
      (Grammar.prods g)
  done;
  (tbl, idx)

let first_tree g w =
  let toks = Array.of_list w in
  let n = Array.length toks in
  let tbl, idx = recognition_table g toks in
  let sym_ok s i j =
    match s with
    | T a -> j = i + 1 && toks.(i).Token.term = a
    | NT x -> tbl.(x).(idx i j)
  in
  (* Backtracking extraction, pruned by the recognition table.  A path
     visited set over (nonterminal, span) blocks unit/epsilon cycles;
     minimal trees never repeat a (nonterminal, span) along a path, so the
     pruned search is still complete. *)
  let module Key = struct
    type t = int * int * int

    let compare = Stdlib.compare
  end in
  let module KSet = Set.Make (Key) in
  let rec build_sym s i j path =
    match s with
    | T _ -> if sym_ok s i j then Some (Tree.leaf toks.(i)) else None
    | NT x ->
      if (not (sym_ok s i j)) || KSet.mem (x, i, j) path then None
      else begin
        let path = KSet.add (x, i, j) path in
        let rec try_prods = function
          | [] -> None
          | ix :: rest -> (
            match build_seq (Grammar.prod g ix).Grammar.rhs i j path with
            | Some kids -> Some (Tree.node x kids)
            | None -> try_prods rest)
        in
        try_prods (Grammar.prods_of g x)
      end
  and build_seq syms i j path =
    match syms with
    | [] -> if i = j then Some [] else None
    | s :: rest ->
      let rec try_split m =
        if m > j then None
        else if sym_ok s i m then
          match build_sym s i m path with
          | Some v -> (
            match build_seq rest m j path with
            | Some vs -> Some (v :: vs)
            | None -> try_split (m + 1))
          | None -> try_split (m + 1)
        else try_split (m + 1)
      in
      try_split i
  in
  build_sym (NT (Grammar.start g)) 0 n KSet.empty

let enumerate ?(limit = 2) ?(depth = 64) g w =
  let toks = Array.of_list w in
  let n = Array.length toks in
  (* All trees for symbol [s] over w[i..j), up to [limit], depth-bounded. *)
  let rec sym_trees s i j d =
    if d <= 0 then []
    else
      match s with
      | T a ->
        if j = i + 1 && toks.(i).Token.term = a then [ Tree.leaf toks.(i) ]
        else []
      | NT x ->
        List.concat_map
          (fun ix ->
            let rhs = (Grammar.prod g ix).Grammar.rhs in
            List.map
              (fun kids -> Tree.node x kids)
              (seq_trees rhs i j (d - 1)))
          (Grammar.prods_of g x)
  and seq_trees syms i j d =
    match syms with
    | [] -> if i = j then [ [] ] else []
    | s :: rest ->
      List.concat
        (List.init
           (j - i + 1)
           (fun k ->
             let m = i + k in
             let heads = sym_trees s i m d in
             if heads = [] then []
             else
               List.concat_map
                 (fun tail -> List.map (fun h -> h :: tail) heads)
                 (seq_trees rest m j d)))
  in
  let all = sym_trees (NT (Grammar.start g)) 0 n depth in
  let distinct = List.sort_uniq Tree.compare all in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take limit distinct
