module G = Costar_grammar.Grammar
module Lines = Costar_grammar.Lines
module Token_buf = Costar_grammar.Token_buf

type action =
  | Emit
  | Skip

type rule = {
  name : string;
  re : Regex.t;
  action : action;
}

let rule ?(skip = false) name re =
  { name; re; action = (if skip then Skip else Emit) }

type t = {
  rules : rule array;
  dfa : Dfa.t;
}

let make rules =
  List.iter
    (fun r ->
      if Regex.nullable r.re then
        invalid_arg ("Scanner.make: rule " ^ r.name ^ " accepts empty string"))
    rules;
  let nfa = Nfa.build (List.map (fun r -> r.re) rules) in
  { rules = Array.of_list rules; dfa = Dfa.of_nfa nfa }

let dfa t = t.dfa
let rules t = Array.to_list t.rules

type error = {
  msg : string;
  err_line : int;
  err_col : int;
}

let pp_error ppf e =
  Fmt.pf ppf "lexical error at line %d, column %d: %s" e.err_line e.err_col
    e.msg

(* --- Compiled scanner ---------------------------------------------------- *)

(* A scanner bound to a grammar: every rule's terminal id is resolved
   once, here, not once per token.  Scanning then runs in a single pass
   over the input, writing (kind, start, end) int triples into a
   struct-of-arrays buffer — no records, no substrings, no positions.
   Every table the loop reads is an off-heap bigarray (the DFA's int8
   class map and int16 successor table, plus the per-state emit table
   below), so a warm scan touches the OCaml heap only to grow the token
   buffer — which the per-domain scratch of [scan_buf] rarely does. *)
type compiled = {
  sc : t;
  cstart : int;
  classes : Dfa.classes_arr;
  ctrans : Dfa.ctrans_arr;
  nc : int;
  (* Per DFA state: the terminal id to emit if the state's accepting rule
     is an Emit rule the grammar has, -1 for a Skip rule, -2 for an Emit
     rule whose name is not a terminal, and -3 for a non-accepting state. *)
  accept_term : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

let compile t g =
  let rule_term =
    Array.map
      (fun r ->
        match r.action with
        | Skip -> -1
        | Emit -> Option.value (G.terminal_of_name g r.name) ~default:(-2))
      t.rules
  in
  let accept_term =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout
      (Dfa.num_states t.dfa)
  in
  for s = 0 to Dfa.num_states t.dfa - 1 do
    let r = Dfa.accept_ix t.dfa s in
    Bigarray.Array1.set accept_term s (if r < 0 then -3 else rule_term.(r))
  done;
  {
    sc = t;
    cstart = Dfa.start t.dfa;
    classes = Dfa.class_table_arr t.dfa;
    ctrans = Dfa.class_trans t.dfa;
    nc = Dfa.num_classes t.dfa;
    accept_term;
  }

exception Lex_err of error

let error_at buf ofs msg =
  let line, col = Lines.pos (Token_buf.lines buf) ofs in
  Lex_err { msg; err_line = line; err_col = col }

(* The rule of the longest match [input.[start .. stop - 1]]: the
   accepting rule of the DFA state that match ends in. *)
let rule_of_match t input start stop =
  let state = ref (Dfa.start t.dfa) in
  for i = start to stop - 1 do
    state := Dfa.next t.dfa !state input.[i]
  done;
  t.rules.(Dfa.accept_ix t.dfa !state)

(* A token of a rule the grammar lacks is an error at its start, raised
   only once the whole input has scanned: a byte no rule matches, anywhere,
   takes precedence. *)
let scan_into c buf input =
  let n = String.length input in
  let classes = c.classes and ctrans = c.ctrans and nc = c.nc in
  let accept_term = c.accept_term in
  let pos = ref 0 in
  let unresolved_at = ref (-1) and unresolved_stop = ref 0 in
  while !pos < n do
    (* Maximal munch, tracking the emit decision (terminal id, skip or
       unresolved) instead of the rule index: one array read and one
       compare per accept. *)
    let best_end = ref (-1) and best_term = ref (-3) in
    let state = ref c.cstart in
    let i = ref !pos in
    (try
       while !i < n do
         let cls =
           Bigarray.Array1.unsafe_get classes
             (Char.code (String.unsafe_get input !i))
         in
         let s' = Bigarray.Array1.unsafe_get ctrans ((!state * nc) + cls) in
         if s' < 0 then raise_notrace Exit;
         state := s';
         incr i;
         let t = Bigarray.Array1.unsafe_get accept_term s' in
         if t >= -2 then begin
           best_end := !i;
           best_term := t
         end
       done
     with Exit -> ());
    if !best_end < 0 then
      raise_notrace
        (error_at buf !pos (Printf.sprintf "no rule matches %C" input.[!pos]));
    if !best_term >= 0 then
      Token_buf.add buf ~kind:!best_term ~start:!pos ~stop:!best_end
    else if !best_term = -2 && !unresolved_at < 0 then begin
      unresolved_at := !pos;
      unresolved_stop := !best_end
    end;
    pos := !best_end
  done;
  if !unresolved_at >= 0 then
    raise_notrace
      (error_at buf !unresolved_at
         (Printf.sprintf "token kind %s is not a terminal of the grammar"
            (rule_of_match c.sc input !unresolved_at !unresolved_stop).name))

(* One scratch buffer per domain, kept between scans and grown by
   doubling: a warm scan writes into arrays it already has, and only the
   exact-size copy that [scan_buf] returns is new off-heap memory.  (No
   systhreads run scans, so a domain never has two in flight.)  Once the
   scan's consumer is done, the scratch is rebound to [""]: it keeps its
   capacity, but not the input string or its newline table. *)
let scratch = Domain.DLS.new_key (fun () -> Token_buf.create "")

let with_scratch c input f =
  let buf = Domain.DLS.get scratch in
  Token_buf.reset buf input;
  let scanned =
    match scan_into c buf input with
    | () -> Ok buf
    | exception Lex_err e -> Error e
  in
  match f scanned with
  | v ->
    Token_buf.reset buf "";
    v
  | exception e ->
    Token_buf.reset buf "";
    raise e

let copy_scanned = Result.map Token_buf.copy
let scan_buf c input = with_scratch c input copy_scanned

let tokenize t g input =
  Result.map Token_buf.to_tokens (scan_buf (compile t g) input)
