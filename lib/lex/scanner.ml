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

type raw = {
  kind : string;
  lexeme : string;
  line : int;
  col : int;
}

type error = {
  msg : string;
  err_line : int;
  err_col : int;
}

let pp_error ppf e =
  Fmt.pf ppf "lexical error at line %d, column %d: %s" e.err_line e.err_col
    e.msg

(* Maximal munch from [pos]: the end offset of the longest match and its
   rule index, or (-1, -1) if no rule matches.  The hot loop is two array
   reads per byte (byte -> class, (state, class) -> state) against the
   DFA's flat class table. *)
let munch dfa input n pos =
  let classes = Dfa.class_table_arr dfa in
  let ctrans = Dfa.class_trans dfa in
  let nc = Dfa.num_classes dfa in
  let best_end = ref (-1) and best_rule = ref (-1) in
  let state = ref (Dfa.start dfa) in
  let i = ref pos in
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
       let r = Dfa.accept_ix dfa s' in
       if r >= 0 then begin
         best_end := !i;
         best_rule := r
       end
     done
   with Exit -> ());
  (!best_end, !best_rule)

(* Positions come from the shared newline-offset table (built lazily, on
   the first token that needs one), not from per-lexeme line/col
   tracking, so the legacy and buffer paths report identical positions;
   skipped tokens allocate nothing — no substring, no position. *)
let scan t input =
  let n = String.length input in
  let lines = lazy (Lines.build input) in
  let pos_of ofs = Lines.pos (Lazy.force lines) ofs in
  let rec go pos acc =
    if pos >= n then Ok (List.rev acc)
    else begin
      let end_pos, rule_ix = munch t.dfa input n pos in
      if rule_ix < 0 then begin
        let line, col = pos_of pos in
        Error
          {
            msg = Printf.sprintf "no rule matches %C" input.[pos];
            err_line = line;
            err_col = col;
          }
      end
      else
        let r = t.rules.(rule_ix) in
        let acc =
          match r.action with
          | Skip -> acc
          | Emit ->
            let lexeme = String.sub input pos (end_pos - pos) in
            let line, col = pos_of pos in
            { kind = r.name; lexeme; line; col } :: acc
        in
        go end_pos acc
    end
  in
  go 0 []

let tokenize t g input =
  match scan t input with
  | Error e -> Error e
  | Ok raws ->
    let module Tk = Costar_grammar.Token in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | r :: rest -> (
        match G.terminal_of_name g r.kind with
        | Some term ->
          resolve (Tk.make ~line:r.line ~col:r.col term r.lexeme :: acc) rest
        | None ->
          Error
            {
              msg =
                Printf.sprintf "token kind %s is not a terminal of the grammar"
                  r.kind;
              err_line = r.line;
              err_col = r.col;
            })
    in
    resolve [] raws

(* --- Compiled scanner: the zero-copy buffer pipeline ------------------- *)

(* A scanner bound to a grammar: every rule's terminal id is resolved
   once, here, instead of once per token ([tokenize] re-resolves the rule
   name on every token it emits).  Scanning then runs in a single pass
   over the input, writing (kind, start, end) int triples into a
   struct-of-arrays buffer — no records, no substrings, no positions.
   Every table the loop reads is an off-heap bigarray (the DFA's int8
   class map and int16 successor table, plus the per-state emit table
   below), so a warm scan touches the OCaml heap only to grow the token
   buffer — which a pre-sized arena never does. *)
type compiled = {
  sc : t;
  cstart : int;
  classes : Dfa.classes_arr;
  ctrans : Dfa.ctrans_arr;
  nc : int;
  (* Per DFA state: the terminal id to emit if the state's accepting rule
     is an Emit rule, -1 for a Skip rule, -2 for a non-accepting state. *)
  accept_term : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

let compile t g =
  let missing =
    Array.to_list t.rules
    |> List.filter (fun r ->
           r.action = Emit && G.terminal_of_name g r.name = None)
    |> List.map (fun r -> r.name)
  in
  match missing with
  | _ :: _ ->
    Error
      (Printf.sprintf "token kinds are not terminals of the grammar: %s"
         (String.concat ", " missing))
  | [] ->
    let rule_term =
      Array.map
        (fun r ->
          match r.action with
          | Skip -> -1
          | Emit -> (
            match G.terminal_of_name g r.name with
            | Some term -> term
            | None -> assert false))
        t.rules
    in
    let accept_term =
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout
        (Dfa.num_states t.dfa)
    in
    for s = 0 to Dfa.num_states t.dfa - 1 do
      let r = Dfa.accept_ix t.dfa s in
      Bigarray.Array1.set accept_term s (if r < 0 then -2 else rule_term.(r))
    done;
    Ok
      {
        sc = t;
        cstart = Dfa.start t.dfa;
        classes = Dfa.class_table_arr t.dfa;
        ctrans = Dfa.class_trans t.dfa;
        nc = Dfa.num_classes t.dfa;
        accept_term;
      }

let scanner_of_compiled c = c.sc

exception Lex_err of error

let scan_into c buf input =
  let n = String.length input in
  let classes = c.classes and ctrans = c.ctrans and nc = c.nc in
  let accept_term = c.accept_term in
  let pos = ref 0 in
  while !pos < n do
    (* Inlined maximal munch, tracking the emit decision (terminal id or
       skip) instead of the rule index: one array read per accept. *)
    let best_end = ref (-1) and best_term = ref (-2) in
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
         if t >= -1 then begin
           best_end := !i;
           best_term := t
         end
       done
     with Exit -> ());
    if !best_end < 0 then begin
      let line, col = Lines.pos (Token_buf.lines buf) !pos in
      raise_notrace
        (Lex_err
           {
             msg = Printf.sprintf "no rule matches %C" input.[!pos];
             err_line = line;
             err_col = col;
           })
    end;
    if !best_term >= 0 then
      Token_buf.add buf ~kind:!best_term ~start:!pos ~stop:!best_end;
    pos := !best_end
  done

let scan_buf c input =
  let buf = Token_buf.create_for_input input in
  match scan_into c buf input with
  | () -> Ok buf
  | exception Lex_err e -> Error e
