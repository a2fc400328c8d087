open Costar_grammar
open Costar_grammar.Symbols

type frame =
  | Bottom
  | Frame of {
      label : nonterminal;
      start : int;
      first : int;
      ret : symbol list;
      below : frame;
    }

type state = {
  suf : symbol list;
  top : frame;
  pos : int;
  ev : int;
  unique : bool;
}

type ctx = {
  cache : Cache.t;
  word : Word.t;
  events : Tree.Events.t;
  decisions : int array;
}

type fail_reason =
  | Fail_mismatch of { expected : terminal; pos : int }
  | Fail_eof of { expected : terminal }
  | Fail_no_alt of { nt : nonterminal; pos : int; lookahead : int }
  | Fail_trailing of { pos : int }

type failure = {
  reason : fail_reason;
  message : string;
}

type step_result =
  | Step_cont of state
  | Step_halt
  | Step_reject of failure
  | Step_error of Types.error

type stop =
  | Halted of state
  | Rejected of state * failure
  | Failed of Types.error

type final =
  | Final_accept of Tree.t
  | Final_trailing of failure
  | Final_malformed

type env = {
  g : Grammar.t;
  anl : Analysis.t;
  lhs : nonterminal array;
  rhs : symbol list array;
  stride : int;
  mutable events_per_token : int;
}

let make_env g =
  let prods = Grammar.prods g in
  {
    g;
    anl = Analysis.make g;
    lhs = Array.map (fun (p : Grammar.production) -> p.lhs) prods;
    rhs = Array.map (fun (p : Grammar.production) -> p.rhs) prods;
    stride = Grammar.num_terminals g + 1;
    events_per_token = 2;
  }

(* The buffer starts at the event density of the last tree this env
   finished (see [finish]), so a run rarely grows it: growth allocates
   and copies, and every off-heap byte allocated speeds up the major GC. *)
let context env ?cache word =
  let cache =
    match cache with Some c -> c | None -> Cache.create env.anl
  in
  let decisions = Cache.decisions cache in
  (* The loop reads the table unchecked, so its shape must be this
     grammar's. *)
  if Array.length decisions <> Grammar.num_nonterminals env.g * env.stride then
    invalid_arg "Machine.context: the cache belongs to another grammar";
  let n = (env.events_per_token * word.Word.len) + 16 in
  { cache; word; events = Tree.Events.create n; decisions }

let initial env =
  { suf = [ NT (Grammar.start env.g) ]; top = Bottom; pos = 0; ev = 0; unique = true }

(* The unprocessed suffixes below the top frame's: each frame's [ret] is
   its caller's suffix past the open child. *)
let rec rets = function
  | Bottom -> []
  | Frame f -> f.ret :: rets f.below

let conts st = st.suf :: rets st.top

(* The suffix stack below the decision at the head of the top suffix, for
   the LL fallback.  A top-level function of the two loop variables, so
   handing it to {!Predict.adaptive_predict} allocates nothing until the
   fallback runs. *)
let conts_below rest top = rest :: rets top

let labels st =
  let rec go = function
    | Bottom -> [ None ]
    | Frame f -> Some f.label :: go f.below
  in
  go st.top

let height st =
  let rec go n = function Bottom -> n | Frame f -> go (n + 1) f.below in
  go 1 st.top

let remaining ctx st = ctx.word.Word.len - st.pos

let remaining_tokens ctx st = Word.drop ctx.word st.pos

(* The paper's visited set is the set of nonterminals opened since the last
   consume.  Every push records the position it happened at, and positions
   never decrease up the stack, so those nonterminals are exactly the
   labels of the topmost frames whose [start] is the current position:
   the set is a property of the stack, not a second structure to keep in
   step with it.  [opened_at] is the push guard's membership test. *)
let rec opened_at pos x = function
  | Frame f -> f.start = pos && (f.label = x || opened_at pos x f.below)
  | Bottom -> false

let visited st =
  let rec go acc = function
    | Frame f when f.start = st.pos -> go (Int_set.add f.label acc) f.below
    | _ -> acc
  in
  go Int_set.empty st.top

(* The trees of every frame, top frame first, each left to right.  The
   top frame's children are the events from its [first] to [st.ev]; a
   caller's end where the frame above it starts.  The bottom frame's
   children start at event 0. *)
let trees ctx st =
  let rec kids first j ts =
    if j < first then ts
    else
      kids first
        (j - Tree.Events.size ctx.events j)
        (Tree.Events.tree ctx.events ctx.word j :: ts)
  in
  let rec go hi acc = function
    | Bottom -> List.rev (kids 0 (hi - 1) [] :: acc)
    | Frame f -> go f.first (kids f.first (hi - 1) [] :: acc) f.below
  in
  go st.ev [] st.top

(* Processed symbols of each frame, most recent first: the roots of its
   partial trees.  Recovery's skipped-input markers stand for no symbol. *)
let processed ctx st =
  List.map
    (List.fold_left
       (fun acc v ->
         match Tree.view v with
         | Tree.Error (None, _) -> acc
         | _ -> Tree.root v :: acc)
       [])
    (trees ctx st)

let pos_msg ctx st =
  if st.pos >= ctx.word.Word.len then "at end of input"
  else
    let tok = Word.token ctx.word st.pos in
    if tok.Token.line > 0 then
      Printf.sprintf "at line %d, column %d" tok.Token.line tok.Token.col
    else "at token " ^ tok.Token.lexeme

(* Defensive name lookups for error messages: input tokens may carry
   terminal ids the grammar never interned. *)
let safe_terminal_name = Costar_grammar.Names.terminal

let reject st reason message = Rejected (st, { reason; message })

let mismatch env ctx st a =
  let word = ctx.word in
  if st.pos < word.Word.len then
    let tok = Word.token word st.pos in
    reject st
      (Fail_mismatch { expected = a; pos = st.pos })
      (Printf.sprintf "expected '%s' but found '%s' (%S) %s"
         (Grammar.terminal_name env.g a)
         (safe_terminal_name env.g tok.Token.term)
         tok.Token.lexeme (pos_msg ctx st))
  else
    reject st (Fail_eof { expected = a })
      (Printf.sprintf "expected '%s' but reached end of input"
         (Grammar.terminal_name env.g a))

let no_alt env ctx st x look =
  reject st
    (Fail_no_alt { nt = x; pos = st.pos; lookahead = look })
    (Printf.sprintf "no viable alternative for %s %s"
       (Costar_grammar.Names.nonterminal env.g x)
       (pos_msg ctx st))

(* --- The transition ------------------------------------------------------ *)

(* [run] is the machine loop: its arguments are the state's fields, so a
   transition allocates nothing but a pushed frame, and a [state] record
   is built only where the loop stops.  With [once] it stops after one
   primitive transition ([Paused]): that is {!step}.  Without it, an
   ε-production finishes inside the push that predicts it — the node
   event a push and its immediate return would write, with no frame —
   so the loop takes fewer transitions than {!step} does, through the
   same states minus the ε-frames in between. *)
type run =
  | Stop of stop
  | Paused of state

let rec run once env ctx suf top pos ev unique =
  match suf with
  | T a :: rest ->
    let word = ctx.word in
    if pos < word.Word.len && Bigarray.Array1.unsafe_get word.Word.kinds pos = a
    then begin
      (* The leaf is the token's index: no token is materialized here.
         Advancing [pos] empties the visited set: no frame starts past the
         consumed token. *)
      Tree.Events.leaf ctx.events ev pos;
      next once env ctx rest top (pos + 1) (ev + 1) unique
    end
    else Stop (mismatch env ctx { suf; top; pos; ev; unique } a)
  | NT x :: rest ->
    if opened_at pos x top then Stop (Failed (Types.Left_recursive x))
    else
      (* The first-token table first: {!Cache.decision}'s read, written
         out here because the library is built without cross-module
         inlining, and a call per push is what the table saves. *)
      let word = ctx.word in
      let e =
        if pos < word.Word.len then
          let a = Bigarray.Array1.unsafe_get word.Word.kinds pos in
          if a >= 0 && a < env.stride - 1 then
            Array.unsafe_get ctx.decisions ((x * env.stride) + a)
          else -1
        else Array.unsafe_get ctx.decisions ((x * env.stride) + env.stride - 1)
      in
      if e >= 0 && not !Instr.cov_enabled then begin
        if !Instr.enabled then
          Instr.record_table_hit x e ~at_end:(pos >= word.Word.len);
        enter once env ctx (e lsr 2) rest top pos ev unique
      end
      else
        (* Predict through the cache's own analysis, not [env.anl]: a
           supplied cache (loaded from an image, or built by the static
           analyzer) expresses its configurations in its own frame
           interner. *)
        begin match
          Predict.adaptive_predict env.g (Cache.analysis ctx.cache) ctx.cache
            x ~conts:conts_below rest top word pos
        with
        | Types.Unique_pred ix, _ -> enter once env ctx ix rest top pos ev unique
        | Types.Ambig_pred ix, _ -> enter once env ctx ix rest top pos ev false
        | Types.Reject_pred, look ->
          Stop (no_alt env ctx { suf; top; pos; ev; unique } x look)
        | Types.Error_pred e, _ -> Stop (Failed e)
        end
  | [] -> (
    match top with
    | Bottom -> Stop (Halted { suf; top; pos; ev; unique })
    | Frame f ->
      Tree.Events.node ctx.events ev f.label ~first:f.first;
      next once env ctx f.ret f.below pos (ev + 1) unique)

(* Open production [ix] at the head of the top suffix; [rest] follows it. *)
and enter once env ctx ix rest top pos ev unique =
  if !Instr.cov_enabled then Instr.record_cov_prod ix;
  match Array.unsafe_get env.rhs ix with
  | [] when not once ->
    (* ε fusion: the push and its return, with no frame in between.  The
       guard already checked the label against the frames open here. *)
    Tree.Events.node ctx.events ev (Array.unsafe_get env.lhs ix) ~first:ev;
    run once env ctx rest top pos (ev + 1) unique
  | rhs ->
    let frame =
      Frame
        { label = Array.unsafe_get env.lhs ix; start = pos; first = ev; ret = rest;
          below = top }
    in
    next once env ctx rhs frame pos ev unique

and next once env ctx suf top pos ev unique =
  if once then Paused { suf; top; pos; ev; unique }
  else run once env ctx suf top pos ev unique

let step env ctx st =
  match run true env ctx st.suf st.top st.pos st.ev st.unique with
  | Paused st' -> Step_cont st'
  | Stop (Halted _) -> Step_halt
  | Stop (Rejected (_, f)) -> Step_reject f
  | Stop (Failed e) -> Step_error e

let multistep ?inspect env ctx st0 =
  match inspect with
  | None -> (
    match run false env ctx st0.suf st0.top st0.pos st0.ev st0.unique with
    | Stop s -> s
    | Paused _ -> assert false (* only [once] pauses *))
  | Some inspect ->
    let rec go st =
      inspect ctx st;
      match step env ctx st with
      | Step_cont st' -> go st'
      | Step_halt -> Halted st
      | Step_reject f -> Rejected (st, f)
      | Step_error e -> Failed e
    in
    go st0

(* The bottom frame must hold exactly one tree, a node (or, after
   recovery, an error marker) for the start symbol: one event spanning
   every event written. *)
let finish env ctx st =
  if st.pos < ctx.word.Word.len then
    Final_trailing
      {
        reason = Fail_trailing { pos = st.pos };
        message =
          Printf.sprintf "parse finished with input remaining %s"
            (pos_msg ctx st);
      }
  else
    let ev = ctx.events and n = st.ev in
    let start = Grammar.start env.g in
    if
      st.top = Bottom && st.suf = [] && n > 0
      && Tree.Events.size ev (n - 1) = n
      && (match Tree.Events.symbol ev ctx.word (n - 1) with
         | Some (NT x) -> x = start
         | _ -> false)
    then begin
      let len = ctx.word.Word.len in
      if len > 0 then env.events_per_token <- (n + len - 1) / len;
      Final_accept (Tree.Events.seal ev ctx.word n)
    end
    else Final_malformed

(* --- StacksWf_I (Fig. 4) ------------------------------------------------ *)

let stacks_wf env ctx st =
  let g = env.g in
  (* Each frame, top first: its label, its unprocessed symbols — in a
     caller frame, headed by the open child's nonterminal, as in the
     paper — its push position and its first event. *)
  let rec levels suf child = function
    | Bottom -> [ (None, child suf, 0, 0) ]
    | Frame f ->
      (Some f.label, child suf, f.start, f.first)
      :: levels f.ret (fun s -> NT f.label :: s) f.below
  in
  let frames_wf =
    List.for_all2
      (fun (label, unproc, _, _) done_rev ->
        let full = List.rev_append done_rev unproc in
        match label with
        | Some x -> Option.is_some (Grammar.find_production g x full)
        | None -> (
          (* Bottom frame: spells exactly the start symbol. *)
          match full with [ NT x ] -> x = Grammar.start g | _ -> false))
  in
  let ls = levels st.suf Fun.id st.top in
  (* Push positions never decrease up the stack and never pass the input
     position: the derived visited set relies on it.  Event starts never
     decrease up the stack either. *)
  let rec mono above = function
    | [] -> true
    | x :: below -> x <= above && mono x below
  in
  frames_wf ls (processed ctx st)
  && mono st.pos (List.map (fun (_, _, start, _) -> start) ls)
  && mono st.ev (List.map (fun (_, _, _, first) -> first) ls)
