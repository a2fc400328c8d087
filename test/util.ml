(* Shared test helpers: random grammar and word generation for the
   property-based suites. *)

open Costar_grammar

let nt_names = [| "S"; "A"; "B"; "C" |]
let term_names = [| "a"; "b"; "c" |]

(* A random grammar over up to 4 nonterminals and 3 terminals.  Left
   recursion is allowed; properties dispatch on the static checker. *)
let gen_grammar : Grammar.t QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n_nts ->
  int_range 1 3 >>= fun n_terms ->
  let gen_sym =
    int_range 0 (n_nts + n_terms - 1) >|= fun i ->
    if i < n_terms then Grammar.t term_names.(i)
    else Grammar.n nt_names.(i - n_terms)
  in
  let gen_alt = int_range 0 3 >>= fun len -> list_repeat len gen_sym in
  let gen_alts = int_range 1 3 >>= fun k -> list_repeat k gen_alt in
  let rec gen_rules i acc =
    if i = n_nts then return (List.rev acc)
    else
      gen_alts >>= fun alts -> gen_rules (i + 1) ((nt_names.(i), alts) :: acc)
  in
  gen_rules 0 [] >|= fun rules ->
  Grammar.define ~extra_terminals:(Array.to_list term_names) ~start:"S" rules

(* A random word over the grammar's terminals, as terminal names. *)
let gen_random_word g : string list QCheck.Gen.t =
  let open QCheck.Gen in
  let n_terms = Grammar.num_terminals g in
  int_range 0 10 >>= fun len ->
  list_repeat len (int_range 0 (n_terms - 1) >|= Grammar.terminal_name g)

(* Attempt to sample a valid sentence of [g] by random leftmost expansion
   with fuel; returns None when fuel runs out (e.g. non-productive
   grammars). *)
let random_sentence g (rand : Random.State.t) : string list option =
  let module S = Symbols in
  let fuel = ref 60 in
  let rec go acc syms =
    if List.length acc > 12 then None
    else
      match syms with
      | [] -> Some (List.rev acc)
      | S.T a :: rest -> go (Grammar.terminal_name g a :: acc) rest
      | S.NT x :: rest -> (
        decr fuel;
        if !fuel <= 0 then None
        else
          match Grammar.prods_of g x with
          | [] -> None
          | prods ->
            let pick =
              if !fuel < 20 then
                (* Low fuel: bias towards the alternative with the fewest
                   nonterminals to steer toward termination. *)
                let weight ix =
                  List.length
                    (List.filter
                       (function S.NT _ -> true | S.T _ -> false)
                       (Grammar.prod g ix).Grammar.rhs)
                in
                List.fold_left
                  (fun best ix -> if weight ix < weight best then ix else best)
                  (List.hd prods) prods
              else List.nth prods (Random.State.int rand (List.length prods))
            in
            go acc ((Grammar.prod g pick).Grammar.rhs @ rest))
  in
  go [] [ S.NT (Grammar.start g) ]

(* A word that is valid with probability ~1/2 (when the grammar permits):
   either a sampled sentence or a uniformly random word. *)
let gen_word g : string list QCheck.Gen.t =
  let open QCheck.Gen in
  bool >>= fun use_sentence ->
  if use_sentence then fun st ->
    match random_sentence g st with
    | Some w -> w
    | None -> generate1 ~rand:st (gen_random_word g)
  else gen_random_word g

let print_case (g, w) =
  Fmt.str "@[<v>%a@,word: %s@]" Grammar.pp g (String.concat " " w)

let arb_grammar_word : (Grammar.t * string list) QCheck.arbitrary =
  let gen =
    let open QCheck.Gen in
    gen_grammar >>= fun g ->
    gen_word g >|= fun w -> (g, w)
  in
  QCheck.make ~print:print_case gen

(* A token-list run through a prepared parser (the list form of
   [Parser.run_word]). *)
let run ?cache ?inspect p toks =
  Costar_core.Parser.run_word ?cache ?inspect p (Word.of_tokens toks)
