open Costar_lex
module G = Costar_grammar.Grammar
module Token_buf = Costar_grammar.Token_buf
module Lines = Costar_grammar.Lines

let openers = [ "("; "["; "{" ]
let closers = [ ")"; "]"; "}" ]

let synth kind line col = { Scanner.kind; lexeme = ""; line; col }

let run raws =
  let out = ref [] in
  let emit r = out := r :: !out in
  let indents = ref [ 0 ] in
  let depth = ref 0 in
  let line_has_content = ref false in
  let at_line_start = ref true in
  let error = ref None in
  let handle_line_start (tok : Scanner.raw) =
    let col = tok.Scanner.col in
    (match !indents with
    | top :: _ when col > top ->
      indents := col :: !indents;
      emit (synth "INDENT" tok.line 0)
    | _ ->
      let rec dedent () =
        match !indents with
        | top :: rest when col < top ->
          indents := rest;
          emit (synth "DEDENT" tok.line 0);
          dedent ()
        | top :: _ ->
          if col <> top then
            error :=
              Some
                (Printf.sprintf
                   "line %d: unindent does not match any outer level" tok.line)
        | [] -> assert false
      in
      dedent ());
    at_line_start := false
  in
  List.iter
    (fun (tok : Scanner.raw) ->
      if !error = None then
        if tok.Scanner.kind = "NEWLINE" then begin
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
    let last_line =
      match !out with [] -> 1 | r :: _ -> r.Scanner.line + 1
    in
    if !line_has_content then emit (synth "NEWLINE" last_line 0);
    List.iter
      (fun level -> if level > 0 then emit (synth "DEDENT" last_line 0))
      !indents;
    Ok (List.rev !out)

(* --- Buffer pass --------------------------------------------------------

   The same algorithm over the struct-of-arrays token buffer: kinds are
   terminal ids (resolved against the grammar once, here), synthesized
   tokens are zero-width entries ([start = stop]) anchored at the start
   of the line they open or close, and columns at line starts come from
   the shared newline table — one binary search per logical line, not
   per token. *)

type ids = {
  newline : int;
  indent : int;
  dedent : int;
  roles : Bytes.t;  (* terminal id -> [plain], [opener], [closer] or [newline] *)
}

let plain = '\000'
let opener = '\001'
let closer = '\002'
let newline = '\003'

let ids_of_grammar g =
  let id name =
    match G.terminal_of_name g name with
    | Some t -> t
    | None -> invalid_arg ("Indenter: grammar lacks terminal " ^ name)
  in
  let roles = Bytes.make (G.num_terminals g) plain in
  let mark role names =
    List.iter (fun t -> Bytes.set roles t role) (List.filter_map (G.terminal_of_name g) names)
  in
  mark opener openers;
  mark closer closers;
  let newline_id = id "NEWLINE" in
  Bytes.set roles newline_id newline;
  { newline = newline_id; indent = id "INDENT"; dedent = id "DEDENT"; roles }

exception Unindent of string

(* The loop reads terminal ids straight off the kinds array and classifies
   each with one byte read.  Tokens between structural events (a newline,
   a line start that may indent or dedent) are copied to the output as one
   run, so an ordinary token costs the read and its share of one copy. *)
let run_buf ids buf =
  let input = Token_buf.input buf in
  let lines = Token_buf.lines buf in
  let n = Token_buf.length buf in
  let kinds = Token_buf.kinds_unsafe buf in
  let out = Token_buf.create ~capacity:(n + 16) input in
  let emit_at kind ofs = Token_buf.add out ~kind ~start:ofs ~stop:ofs in
  let indents = ref [ 0 ] in
  let handle_line_start i =
    let start = Token_buf.start_ofs buf i in
    let bol = Lines.line_start lines start in
    let col = start - bol in
    match !indents with
    | top :: _ when col > top ->
      indents := col :: !indents;
      emit_at ids.indent bol
    | _ ->
      let rec dedent () =
        match !indents with
        | top :: rest when col < top ->
          indents := rest;
          emit_at ids.dedent bol;
          dedent ()
        | top :: _ ->
          if col <> top then
            raise_notrace
              (Unindent
                 (Printf.sprintf
                    "line %d: unindent does not match any outer level"
                    (fst (Token_buf.pos buf i))))
        | [] -> assert false
      in
      dedent ()
  in
  (* [last_stop]: where the last emitted token ends (the start of a
     zero-width NEWLINE). *)
  let last_stop = ref 0 in
  let flush run i =
    if run < i then begin
      Token_buf.append_range out buf run i;
      last_stop := Token_buf.end_ofs buf (i - 1)
    end
  in
  (* Tokens [run, i) are ordinary tokens not yet copied. *)
  let rec go i run depth has_content at_line_start =
    if i >= n then begin
      flush run i;
      has_content
    end
    else
      let kind = Bigarray.Array1.unsafe_get kinds i in
      let role =
        if kind >= 0 && kind < Bytes.length ids.roles then
          Bytes.unsafe_get ids.roles kind
        else plain
      in
      if role = newline then begin
        flush run i;
        if depth = 0 && has_content then begin
          (* Zero-width, like the list pass's lexeme-erased NEWLINE. *)
          let ofs = Token_buf.start_ofs buf i in
          emit_at ids.newline ofs;
          last_stop := ofs;
          go (i + 1) (i + 1) depth false true
        end
        else
          (* Blank line or implicit join: drop the newline. *)
          go (i + 1) (i + 1) depth has_content at_line_start
      end
      else
        let run, at_line_start =
          if at_line_start && depth = 0 then begin
            flush run i;
            handle_line_start i;
            (i, false)
          end
          else (run, at_line_start)
        in
        let depth =
          if role = opener then depth + 1
          else if role = closer then max 0 (depth - 1)
          else depth
        in
        go (i + 1) run depth true at_line_start
  in
  match go 0 0 0 false true with
  | exception Unindent msg -> Error msg
  | has_content ->
    (* End of input: close the open logical line and the indent stack.
       The list pass anchors these at [last emitted token's line + 1], so
       anchor at the start of the line FOLLOWING the last emitted token —
       not at [String.length input], which drifts past it when the input
       ends with blank lines (their newlines are dropped, but they still
       advance the line count). *)
    let eof = String.length input in
    let anchor =
      let rec find j =
        if j >= eof then eof else if input.[j] = '\n' then j + 1 else find (j + 1)
      in
      find !last_stop
    in
    if has_content then emit_at ids.newline anchor;
    List.iter
      (fun level -> if level > 0 then emit_at ids.dedent anchor)
      !indents;
    Ok out
