open Costar_grammar
open Costar_grammar.Symbols
module M = Costar_core.Machine
module P = Costar_core.Parser
module Measure = Costar_core.Measure
module Types = Costar_core.Types
module D = Costar_lint.Diagnostic
module Loc = Costar_grammar.Loc

type repair =
  | Inserted of terminal
  | Deleted
  | Dropped of symbol
  | Skipped of { tokens : int; popped : int }
  | Closed of { popped : int }
  | Gave_up of { tokens : int; popped : int }

type event = {
  diag : D.t;
  repair : repair;
  at : int;
  consumed : int;
}

type verdict =
  | Recovered of Tree.t
  | Recovered_ambig of Tree.t
  | Fatal of Types.error

type outcome = {
  verdict : verdict;
  events : event list;
}

type t = P.t

let make p = p
let parser_of t = t
let diagnostics o = List.map (fun e -> e.diag) o.events

(* --- Spans -------------------------------------------------------------- *)

(* Position just past a token: its start advanced over the lexeme
   (newlines included, so multi-line lexemes span correctly).  Tokens
   made without a scanner may have no position (line 0) — those yield
   dummy spans, like every other position-less construct. *)
let token_end (tok : Token.t) =
  let line = ref tok.Token.line and col = ref tok.Token.col in
  String.iter
    (fun c ->
      if c = '\n' then begin
        incr line;
        col := 0
      end
      else incr col)
    tok.Token.lexeme;
  (!line, !col)

(* Span of the token range [i, i+n) — [n = 0] is the point just before
   token [i] (or past the last token, for end-of-input diagnostics). *)
let span_of_range (w : Word.t) i n =
  if w.Word.len = 0 then Loc.dummy
  else if n = 0 then begin
    let anchor = min (max 0 (i - 1)) (w.Word.len - 1) in
    let tok = Word.token w anchor in
    if tok.Token.line = 0 then Loc.dummy
    else if i = 0 then Loc.point tok.Token.line tok.Token.col
    else
      let line, col = token_end tok in
      Loc.point line col
  end
  else begin
    let first = Word.token w i in
    let last = Word.token w (min (i + n - 1) (w.Word.len - 1)) in
    if first.Token.line = 0 then Loc.dummy
    else
      let end_line, end_col = token_end last in
      Loc.make ~start_line:first.Token.line ~start_col:first.Token.col
        ~end_line ~end_col
  end

(* --- Diagnostics -------------------------------------------------------- *)

let max_expected_names = 8

let expected_note g anl x =
  let names = List.map (Names.terminal g) (Bitset.elements (Analysis.first anl x)) in
  match names with
  | [] -> "the decision nonterminal derives no terminal word"
  | _ ->
    let shown, rest =
      if List.length names <= max_expected_names then (names, 0)
      else
        ( List.filteri (fun i _ -> i < max_expected_names) names,
          List.length names - max_expected_names )
    in
    Printf.sprintf "expected one of: %s%s"
      (String.concat ", " (List.map (fun n -> "'" ^ n ^ "'") shown))
      (if rest = 0 then "" else Printf.sprintf " (and %d more)" rest)

let repair_note g = function
  | Inserted a ->
    Printf.sprintf "recovery: inserted a missing '%s'" (Names.terminal g a)
  | Deleted -> "recovery: deleted this token"
  | Dropped s ->
    Printf.sprintf "recovery: gave up on %s here" (Names.symbol g s)
  | Skipped { tokens; popped } ->
    Printf.sprintf "recovery: skipped %d token%s%s" tokens
      (if tokens = 1 then "" else "s")
      (if popped = 0 then ""
       else
         Printf.sprintf " after closing %d open production%s" popped
           (if popped = 1 then "" else "s"))
  | Closed { popped } ->
    Printf.sprintf "recovery: closed %d open production%s at end of input"
      popped
      (if popped = 1 then "" else "s")
  | Gave_up { tokens; popped } ->
    Printf.sprintf
      "recovery: error limit reached; abandoned the remaining %d token%s (%d \
       open production%s)"
      tokens
      (if tokens = 1 then "" else "s")
      popped
      (if popped = 1 then "" else "s")

(* The P-code for a structured machine failure.  [Fail_mismatch] and
   [Fail_trailing] are both "unexpected token" (P001); running out of
   input is P002; a prediction reject is P003. *)
let code_of_reason = function
  | M.Fail_mismatch _ | M.Fail_trailing _ -> "P001"
  | M.Fail_eof _ -> "P002"
  | M.Fail_no_alt _ -> "P003"

let diag_of_failure t ~file (w : Word.t) (f : M.failure) repair =
  let g = P.grammar t in
  let span =
    match f.M.reason with
    | M.Fail_eof _ -> span_of_range w w.Word.len 0
    | M.Fail_mismatch { pos; _ } | M.Fail_trailing { pos } ->
      span_of_range w pos 1
    | M.Fail_no_alt { pos; _ } ->
      if pos >= w.Word.len then span_of_range w pos 0
      else span_of_range w pos 1
  in
  let notes =
    (match f.M.reason with
    | M.Fail_no_alt { nt; lookahead; _ } ->
      expected_note g (P.analysis t) nt
      ::
      (if lookahead > 1 then
         [ Printf.sprintf "prediction examined %d tokens of lookahead"
             lookahead ]
       else [])
    | _ -> [])
    @ [ repair_note g repair ]
  in
  D.make ~severity:D.Error ?file ~span ~notes (code_of_reason f.M.reason)
    f.M.message

(* P004: scanner failures, re-parsed from the rendered message so the CLI
   can route every failure kind through one renderer (the scanner API
   reports strings at its public boundary). *)
let lex_diag ?file msg =
  let span =
    try
      Scanf.sscanf msg "lexical error at line %d, column %d" (fun l c ->
          Loc.point l c)
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> Loc.dummy
  in
  D.make ~severity:D.Error ?file ~span "P004" msg

(* --- State surgery ------------------------------------------------------ *)

(* Every repair appends events at the state's [ev], as a machine step
   does, so a repair tried from a shared state and then discarded leaves
   nothing behind that the next attempt does not overwrite. *)

(* A synthesized terminal: the machine would have consumed [T a]; instead
   an empty [Error] marker stands in for the missing token.  No input is
   consumed and no frame moves, so the visited set — derived from the
   frames' push positions — keeps protecting the non-consuming segment. *)
let apply_insert (ctx : M.ctx) (st : M.state) a =
  match st.M.suf with
  | T a' :: suf when a' = a ->
    Tree.Events.error ctx.M.events st.M.ev (Some (T a)) ~first:st.M.ev;
    { st with M.suf; M.ev = st.M.ev + 1 }
  | _ -> invalid_arg "Recover.apply_insert: head of suffix is not the terminal"

(* Drop the undrivable head symbol (a nonterminal prediction gave up on):
   an empty [Error] marker records the hole. *)
let apply_drop (ctx : M.ctx) (st : M.state) =
  match st.M.suf with
  | s :: suf ->
    Tree.Events.error ctx.M.events st.M.ev (Some s) ~first:st.M.ev;
    { st with M.suf; M.ev = st.M.ev + 1 }
  | [] -> invalid_arg "Recover.apply_drop: empty suffix"

(* Skip [n >= 1] input tokens into one [Error (None, leaves)] wrapper.
   Consuming input empties the visited set, exactly like a machine consume:
   every frame now starts before the new position. *)
let apply_skip (ctx : M.ctx) (st : M.state) n =
  let ev = ctx.M.events in
  for k = 0 to n - 1 do
    Tree.Events.leaf ev (st.M.ev + k) (st.M.pos + k)
  done;
  Tree.Events.error ev (st.M.ev + n) None ~first:st.M.ev;
  { st with M.pos = st.M.pos + n; M.ev = st.M.ev + n + 1 }

(* Pop [d] frames, closing each as an [Error (Some (NT x), partial kids)]
   node in its caller — the recovery analogue of the machine's return
   operation (popping the frame also takes its label out of the visited
   set). *)
let rec apply_pops (ctx : M.ctx) (st : M.state) d =
  if d = 0 then st
  else
    match st.M.top with
    | M.Frame f ->
      Tree.Events.error ctx.M.events st.M.ev (Some (NT f.label)) ~first:f.first;
      apply_pops ctx
        { st with M.suf = f.ret; M.top = f.below; M.ev = st.M.ev + 1 }
        (d - 1)
    | M.Bottom -> invalid_arg "Recover.apply_pops: cannot pop the bottom frame"

(* Unwind everything: close every open frame and drop the unprocessed
   suffix of the bottom frame.  After this the stack is empty and the
   driver's finalizer runs. *)
let apply_unwind ctx (st : M.state) =
  let st = apply_pops ctx st (M.height st - 1) in
  { st with M.suf = [] }

(* --- Progress trials ---------------------------------------------------- *)

(* Run the machine forward a bounded number of steps and report whether
   the repair provably makes progress: a real token is consumed, or the
   parse finishes cleanly at end of input.  Between two consumes the
   machine performs at most |stack| returns and |nonterminals| pushes
   (the visited guard), so the budget below covers every genuine
   success; a reject or budget exhaustion is [Stuck].

   A repair that consumes nothing leaves frames open at the current
   position, so what follows it may push a nonterminal that one of them
   already opened there: the push guard then reports left recursion in a
   grammar that has none.  Such a trial is [Tripped], and the repair is
   not taken. *)
type trial = Progress | Stuck | Tripped

let trial env ctx (st0 : M.state) =
  let g = env.M.g in
  let budget = M.height st0 + (2 * Grammar.num_nonterminals g) + 8 in
  let pos0 = st0.M.pos in
  let rec go st n =
    if st.M.pos > pos0 then Progress
    else
      match M.step env ctx st with
      | M.Step_cont st' -> if n > 0 then go st' (n - 1) else Stuck
      | M.Step_halt -> if st.M.pos >= ctx.M.word.Word.len then Progress else Stuck
      | M.Step_reject _ -> Stuck
      | M.Step_error _ -> Tripped
  in
  go st0 budget

let progresses env ctx st = trial env ctx st = Progress

(* --- Panic-mode resynchronization --------------------------------------- *)

(* Resume vocabulary per pop depth [d]: FIRST of the suffix the stack
   would resume at, extended — when that suffix can vanish — with the
   sync/anchor set (FIRST ∪ FOLLOW) of the frame's own nonterminal, the
   Coco/R recipe over the precomputed Analysis tables. *)
let resume_sets t (st : M.state) =
  let anl = P.analysis t in
  Array.of_list
    (List.map2
       (fun label suf ->
         let r = Analysis.first_seq anl suf in
         (if Analysis.nullable_seq anl suf then
            match label with
            | Some x -> ignore (Bitset.union_into ~into:r (Analysis.sync anl x))
            | None -> ());
         r)
       (M.labels st) (M.conts st))

(* Find the nearest (skip, pop) repair: the smallest number of skipped
   tokens [s], then the fewest popped frames [d], such that the token at
   [pos + s] is in the resume set of depth [d] and [ok s d] holds.
   (0, 0) is excluded — it is the configuration that just failed.
   [None] means no token resynchronizes: skip to end of input and
   unwind. *)
let find_resync (r : Bitset.t array) (w : Word.t) (st : M.state) ~ok =
  let kinds = w.Word.kinds in
  let len = w.Word.len in
  let n = Array.length r in
  let rec find_d s a d =
    if d >= n then None
    else if Bitset.mem r.(d) a && ok s d then Some d
    else find_d s a (d + 1)
  in
  let rec scan s =
    if st.M.pos + s >= len then None
    else
      let a = Int32.to_int (Bigarray.Array1.get kinds (st.M.pos + s)) in
      match find_d s a (if s = 0 then 1 else 0) with
      | Some d -> Some (s, d)
      | None -> scan (s + 1)
  in
  scan 0

(* --- The driver --------------------------------------------------------- *)

(* Recovery runs the parser's own loop ({!M.multistep}): clean stretches of
   input are the very machine steps a plain parse takes.  A reject is
   repaired and the loop resumed from the repaired state; an empty stack is
   closed out by the machine's finish rule, made total — input left over
   goes through the same repair ladder as every other failure, and a
   malformed bottom frame is wrapped in a root error node. *)
let run_word ?file ?(max_errors = 100) ?(verify_measure = false) ?cache
    ?inspect t word =
  let env = P.env t in
  let g = P.grammar t in
  let start = Grammar.start g in
  let cache = match cache with Some c -> c | None -> P.base_cache t in
  let ctx = M.context env ~cache word in
  let len = word.Word.len in
  let events = ref [] in
  let emit diag repair ~at ~consumed =
    events := { diag; repair; at; consumed } :: !events
  in
  (* [verify_measure]: every state the loop visits — the result of a
     machine step, or a committed repair the loop resumes from — must
     strictly decrease the measure of the state before it.  [transition]
     names what produced the next state, for the failure message. *)
  let last_meas = ref None and transition = ref "machine step" in
  let check ctx st =
    let m1 = Measure.meas g ctx st in
    (match !last_meas with
    | Some m0 when Measure.compare m1 m0 >= 0 ->
      failwith
        (Fmt.str
           "Recover: %s did not decrease the termination measure (%a -> %a)"
           !transition Measure.pp m0 Measure.pp m1)
    | _ -> ());
    last_meas := Some m1;
    transition := "machine step"
  in
  let inspect =
    if not verify_measure then inspect
    else
      Some
        (fun ctx st ->
          check ctx st;
          match inspect with Some f -> f ctx st | None -> ())
  in
  let outcome verdict = { verdict; events = List.rev !events } in
  let rec drive st n_errors =
    match M.multistep ?inspect env ctx st with
    | M.Halted st -> (
      match M.finish env ctx st with
      | M.Final_accept v ->
        outcome (if st.M.unique then Recovered v else Recovered_ambig v)
      | M.Final_trailing f -> drive (recover st f n_errors) (n_errors + 1)
      | M.Final_malformed ->
        (* Wrap the bottom frame's trees (all events, since the stack is
           empty) in a root error node. *)
        Tree.Events.error ctx.M.events st.M.ev (Some (NT start)) ~first:0;
        let tree = Tree.Events.seal ctx.M.events word (st.M.ev + 1) in
        outcome (if st.M.unique then Recovered tree else Recovered_ambig tree))
    | M.Rejected (st, f) -> drive (recover st f n_errors) (n_errors + 1)
    | M.Failed e -> outcome (Fatal e)
  (* One failure, one repair.  Every branch returns a state whose measure
     strictly decreased (checked when the loop resumes from it). *)
  and recover (st : M.state) (f : M.failure) n_errors =
    let commit what repair ~consumed st' =
      emit (diag_of_failure t ~file word f repair) repair
        ~at:
          (match f.M.reason with
          | M.Fail_mismatch { pos; _ }
          | M.Fail_no_alt { pos; _ }
          | M.Fail_trailing { pos } ->
            pos
          | M.Fail_eof _ -> len)
        ~consumed;
      transition := what;
      st'
    in
    let panic () =
      let r = resume_sets t st in
      (* Popping without skipping consumes nothing: if a frame left open
         was pushed at this position (the top one, since positions never
         decrease up the stack), take the candidate only if the guard
         lets the machine go on from it. *)
      let ok s d =
        s > 0
        ||
        let st' = apply_pops ctx st d in
        match st'.M.top with
        | M.Frame f when f.start = st'.M.pos -> trial env ctx st' <> Tripped
        | _ -> true
      in
      match find_resync r word st ~ok with
      | Some (s, d) ->
        let st' = apply_pops ctx st d in
        let st' = if s > 0 then apply_skip ctx st' s else st' in
        commit "panic resync" (Skipped { tokens = s; popped = d }) ~consumed:s
          st'
      | None ->
        (* No resynchronization point: consume everything and close. *)
        let remaining = len - st.M.pos in
        let popped = M.height st - 1 in
        let st' = if remaining > 0 then apply_skip ctx st remaining else st in
        let st' = apply_unwind ctx st' in
        if remaining > 0 then
          commit "skip-to-eof" (Skipped { tokens = remaining; popped })
            ~consumed:remaining st'
        else commit "unwind" (Closed { popped }) ~consumed:0 st'
    in
    if n_errors >= max_errors then begin
      let remaining = len - st.M.pos in
      let popped = M.height st - 1 in
      let st' = if remaining > 0 then apply_skip ctx st remaining else st in
      let st' = apply_unwind ctx st' in
      commit "give-up" (Gave_up { tokens = remaining; popped })
        ~consumed:remaining st'
    end
    else
      match f.M.reason with
      | M.Fail_mismatch { expected; _ } ->
        let inserted = apply_insert ctx st expected in
        if progresses env ctx inserted then
          commit "insertion" (Inserted expected) ~consumed:0 inserted
        else
          let deleted = apply_skip ctx st 1 in
          if progresses env ctx deleted then
            commit "deletion" Deleted ~consumed:1 deleted
          else panic ()
      | M.Fail_no_alt _ ->
        if st.M.pos >= len then begin
          (* Prediction starved at end of input: closing the stack is the
             only move. *)
          let popped = M.height st - 1 in
          commit "eof unwind" (Closed { popped }) ~consumed:0
            (apply_unwind ctx st)
        end
        else begin
          let deleted = apply_skip ctx st 1 in
          if progresses env ctx deleted then
            commit "deletion" Deleted ~consumed:1 deleted
          else
            let dropped = apply_drop ctx st in
            if progresses env ctx dropped then
              commit "symbol drop"
                (Dropped (List.hd st.M.suf))
                ~consumed:0 dropped
            else panic ()
        end
      | M.Fail_eof _ ->
        let popped = M.height st - 1 in
        commit "eof unwind" (Closed { popped }) ~consumed:0
          (apply_unwind ctx st)
      | M.Fail_trailing _ ->
        (* Input left over at an empty stack: skip it; the finish rule then
           closes the tree around the skipped tokens. *)
        let remaining = len - st.M.pos in
        commit "trailing-input skip" (Skipped { tokens = remaining; popped = 0 })
          ~consumed:remaining (apply_skip ctx st remaining)
  in
  drive (M.initial env) 0
