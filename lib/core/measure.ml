open Costar_grammar
open Costar_grammar.Symbols

type score = {
  base : int;
  digits : int array;
}

let compare_score s1 s2 =
  if s1.base <> s2.base then
    invalid_arg "Measure.compare_score: scores over different grammars"
  else begin
    let len = max (Array.length s1.digits) (Array.length s2.digits) in
    let digit a i = if i < Array.length a then a.(i) else 0 in
    let rec go i =
      if i < 0 then 0
      else
        let c = Int.compare (digit s1.digits i) (digit s2.digits i) in
        if c <> 0 then c else go (i - 1)
    in
    go (len - 1)
  end

let stack_score g ~visited sufs =
  (* The paper's base is [1 + maxRhsLen]; we clamp to >= 2 so the bottom
     frame's single start symbol is a valid digit even for grammars whose
     right-hand sides are all empty. *)
  let base = max 2 (1 + Grammar.max_rhs_len g) in
  let u = Grammar.num_nonterminals g in
  let v = Int_set.cardinal visited in
  let e0 = u - v in
  let n_frames = List.length sufs in
  let digits = Array.make (e0 + n_frames) 0 in
  List.iteri
    (fun i suf ->
      (* frameScore(psi, b, e) = b^e * |unprocessed psi|; the exponent grows
         by one per lower frame, starting at |U \ V| for the top frame. *)
      digits.(e0 + i) <- digits.(e0 + i) + List.length suf)
    sufs;
  (* The digit bound |suf| <= maxRhsLen < base keeps this a valid base-b
     numeral, so digit-wise comparison is exact numeric comparison. *)
  assert (Array.for_all (fun d -> d < base) digits);
  { base; digits }

type t = {
  tokens : int;
  score : score;
  height : int;
}

let meas g ctx (st : Machine.state) =
  let sufs = Machine.conts st in
  {
    tokens = Machine.remaining ctx st;
    score = stack_score g ~visited:(Machine.visited st) sufs;
    height = List.length sufs;
  }

let compare m1 m2 =
  let c = Int.compare m1.tokens m2.tokens in
  if c <> 0 then c
  else
    let c = compare_score m1.score m2.score in
    if c <> 0 then c else Int.compare m1.height m2.height

let pp ppf m =
  Fmt.pf ppf "(%d tokens, score[%a], height %d)" m.tokens
    Fmt.(array ~sep:comma int)
    m.score.digits m.height
