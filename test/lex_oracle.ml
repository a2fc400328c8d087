(* Reference lexing for the differential tests: a longest-match scanner
   built on Brzozowski derivatives of [Regex.t], and the Python-style
   indenter over token lists.  Neither shares code with the library's
   lexer: the scanner reads rules through [Regex.view] and nothing else
   (no [Nfa], [Dfa] or [Lines]), and positions come from counting
   newlines here.  It is slow — a derivative per rule per byte — which is
   fine at test sizes. *)

open Costar_grammar
open Costar_lex

(* --- Derivatives ---------------------------------------------------------- *)

type re =
  | Empty  (* matches nothing *)
  | Eps
  | Set of (char * char) list
  | Seq of re * re
  | Alt of re * re
  | Star of re

(* Smart constructors keep derivatives small: ∅ absorbs a sequence and
   vanishes from an alternation, ε is the unit of sequence, and an
   alternation of two equal terms is the term. *)
let seq a b =
  match a, b with
  | Empty, _ | _, Empty -> Empty
  | Eps, r | r, Eps -> r
  | _ -> Seq (a, b)

let alt a b =
  match a, b with
  | Empty, r | r, Empty -> r
  | _ -> if a = b then a else Alt (a, b)

let star = function
  | Empty | Eps -> Eps
  | Star _ as r -> r
  | r -> Star r

let rec of_regex r =
  match Regex.view r with
  | Regex.Eps -> Eps
  | Regex.Ranges [] -> Empty
  | Regex.Ranges rs -> Set rs
  | Regex.Seq2 (a, b) -> seq (of_regex a) (of_regex b)
  | Regex.Alt2 (a, b) -> alt (of_regex a) (of_regex b)
  | Regex.Star a -> star (of_regex a)

let rec nullable = function
  | Empty | Set _ -> false
  | Eps | Star _ -> true
  | Seq (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b

let rec deriv c = function
  | Empty | Eps -> Empty
  | Set rs -> if List.exists (fun (lo, hi) -> lo <= c && c <= hi) rs then Eps else Empty
  | Seq (a, b) ->
    let d = seq (deriv c a) b in
    if nullable a then alt d (deriv c b) else d
  | Alt (a, b) -> alt (deriv c a) (deriv c b)
  | Star a as r -> seq (deriv c a) r

(* --- The scanner ---------------------------------------------------------- *)

(* A token before kind resolution: its rule's name, lexeme and position. *)
type raw = {
  kind : string;
  lexeme : string;
  line : int;
  col : int;
}

(* [positions input] maps every offset in [0, length] to its 1-based line
   and 0-based column. *)
let positions input =
  let n = String.length input in
  let line = Array.make (n + 1) 1 and col = Array.make (n + 1) 0 in
  for i = 1 to n do
    if input.[i - 1] = '\n' then begin
      line.(i) <- line.(i - 1) + 1;
      col.(i) <- 0
    end
    else begin
      line.(i) <- line.(i - 1);
      col.(i) <- col.(i - 1) + 1
    end
  done;
  fun ofs -> (line.(ofs), col.(ofs))

let error pos ofs msg =
  let err_line, err_col = pos ofs in
  { Scanner.msg; err_line; err_col }

(* Longest match from [start]: step every rule's derivative by each byte
   and remember the last length at which some rule is nullable (the
   lowest-numbered one on a tie).  [None] when no rule matches a nonempty
   prefix. *)
let longest_match res input start =
  let n = String.length input in
  let rec go ds i best =
    if i >= n || Array.for_all (fun d -> d = Empty) ds then best
    else
      let ds = Array.map (deriv input.[i]) ds in
      let best =
        let rec first r =
          if r >= Array.length ds then best
          else if nullable ds.(r) then Some (i + 1, r)
          else first (r + 1)
        in
        first 0
      in
      go ds (i + 1) best
  in
  go res start None

(* The skip-free raw tokens of [input] under [rules], or the error at the
   first byte no rule matches. *)
let scan (rules : Scanner.rule list) input =
  let rules = Array.of_list rules in
  let res = Array.map (fun (r : Scanner.rule) -> of_regex r.Scanner.re) rules in
  let pos = positions input in
  let rec go start acc =
    if start >= String.length input then Ok (List.rev acc)
    else
      match longest_match res input start with
      | None -> Error (error pos start (Printf.sprintf "no rule matches %C" input.[start]))
      | Some (stop, r) ->
        let acc =
          match rules.(r).Scanner.action with
          | Scanner.Skip -> acc
          | Scanner.Emit ->
            let line, col = pos start in
            { kind = rules.(r).name; lexeme = String.sub input start (stop - start); line; col }
            :: acc
        in
        go stop acc
  in
  go 0 []

(* Raw tokens resolved against [g]: a kind that is not a terminal fails
   at its token. *)
let resolve g raws =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
      match Grammar.terminal_of_name g r.kind with
      | Some term -> go (Token.make ~line:r.line ~col:r.col term r.lexeme :: acc) rest
      | None ->
        Error
          {
            Scanner.msg =
              Printf.sprintf "token kind %s is not a terminal of the grammar" r.kind;
            err_line = r.line;
            err_col = r.col;
          })
  in
  go [] raws

(* The reference for [Scanner.tokenize]. *)
let tokenize rules g input = Result.bind (scan rules input) (resolve g)

(* --- The indenter --------------------------------------------------------- *)

let openers = [ "("; "["; "{" ]
let closers = [ ")"; "]"; "}" ]

let synth kind line col = { kind; lexeme = ""; line; col }

(* The logical-line stream of [raws] (one ["NEWLINE"] raw per physical
   newline), with [eof] the position of the end of input: the reference
   for [Indenter.run_buf]. *)
let indent ~eof raws =
  let out = ref [] in
  let emit r = out := r :: !out in
  let indents = ref [ 0 ] in
  let depth = ref 0 in
  let line_has_content = ref false in
  let at_line_start = ref true in
  let error = ref None in
  let handle_line_start tok =
    (match !indents with
    | top :: _ when tok.col > top ->
      indents := tok.col :: !indents;
      emit (synth "INDENT" tok.line 0)
    | _ ->
      let rec dedent () =
        match !indents with
        | top :: rest when tok.col < top ->
          indents := rest;
          emit (synth "DEDENT" tok.line 0);
          dedent ()
        | top :: _ ->
          if tok.col <> top then
            error :=
              Some
                (Printf.sprintf "line %d: unindent does not match any outer level"
                   tok.line)
        | [] -> assert false
      in
      dedent ());
    at_line_start := false
  in
  List.iter
    (fun tok ->
      if !error = None then
        if tok.kind = "NEWLINE" then begin
          if !depth = 0 && !line_has_content then begin
            emit { tok with lexeme = "" };
            line_has_content := false;
            at_line_start := true
          end
          (* Blank line or implicit join: drop the newline. *)
        end
        else begin
          if !at_line_start && !depth = 0 then handle_line_start tok;
          if List.mem tok.kind openers then incr depth
          else if List.mem tok.kind closers then depth := max 0 (!depth - 1);
          line_has_content := true;
          emit tok
        end)
    raws;
  match !error with
  | Some msg -> Error msg
  | None ->
    (* End of input: the start of the line after the last emitted token
       when the input has one, else the end of input. *)
    let line, col =
      match !out with
      | [] -> eof
      | r :: _ ->
        let last = ref r.line in
        String.iter (fun c -> if c = '\n' then incr last) r.lexeme;
        if !last < fst eof then (!last + 1, 0) else eof
    in
    if !line_has_content then emit (synth "NEWLINE" line col);
    List.iter (fun level -> if level > 0 then emit (synth "DEDENT" line col)) !indents;
    Ok (List.rev !out)

(* The reference for a bundled language's [Lang.tokenize]: the scanner,
   then for minipy the indenter, with errors rendered as the language
   renders them. *)
let lang_tokenize (l : Costar_langs.Lang.t) input =
  let g = Costar_langs.Lang.grammar l in
  let rules = Scanner.rules (Costar_langs.Lang.scanner l) in
  let lex_error e = Error (Fmt.str "%a" Scanner.pp_error e) in
  match scan rules input with
  | Error e -> lex_error e
  | Ok raws -> (
    let raws =
      if l.Costar_langs.Lang.name = "minipy" then
        indent ~eof:(positions input (String.length input)) raws
      else Ok raws
    in
    match raws with
    | Error msg -> Error msg
    | Ok raws -> Result.map_error (Fmt.str "%a" Scanner.pp_error) (resolve g raws))

(* --- Helpers for the library scanner's own tests ------------------------- *)

(* A grammar that declares every rule name as a terminal, so the scanner
   can resolve every kind. *)
let grammar_for (rules : Scanner.rule list) =
  Grammar.define
    ~extra_terminals:(List.map (fun (r : Scanner.rule) -> r.Scanner.name) rules)
    ~start:"S"
    [ ("S", [ [] ]) ]

(* The library scanner's tokens under [rules] (compiled against
   [grammar_for rules]) as raws: kind names, lexemes, positions. *)
let scan_raws rules input =
  let g = grammar_for rules in
  Scanner.tokenize (Scanner.make rules) g input
  |> Result.map
       (List.map (fun (t : Token.t) ->
            {
              kind = Grammar.terminal_name g t.Token.term;
              lexeme = t.Token.lexeme;
              line = t.Token.line;
              col = t.Token.col;
            }))
