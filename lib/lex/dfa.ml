type state = int

(* The hot stepping tables live off the OCaml heap (DESIGN.md §13): the
   byte→class map as an int8 bigarray (class ids are < 256 by
   construction) and the flat state×class successor table as an int16
   bigarray (state ids and the -1 dead marker; [of_nfa] rejects scanners
   past 32767 states, far beyond any real rule set).  [Array1.unsafe_get]
   on these kinds returns a plain unboxed [int], so the scan loop reads
   them with zero allocation and zero GC scan cost. *)
type classes_arr =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type ctrans_arr =
  (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  start : state;
  trans : int array array;  (** state -> 256-entry successor array, -1 dead *)
  accepts : int option array;
  accept_ix : int array;  (** accepting rule index per state, -1 if none *)
  classes : classes_arr;  (** byte -> equivalence class, 256 entries *)
  num_classes : int;
  ctrans : ctrans_arr;  (** flat [state * num_classes] successor table *)
}

let start d = d.start
let num_states d = Array.length d.trans
let accept d s = d.accepts.(s)
let accept_ix d s = d.accept_ix.(s)

let num_classes d = d.num_classes
let class_of d c = Bigarray.Array1.get d.classes (Char.code c)
let class_table d = Array.init 256 (Bigarray.Array1.get d.classes)
let class_table_arr d = d.classes
let class_trans d = d.ctrans

let next_class d s cls =
  Bigarray.Array1.get d.ctrans ((s * d.num_classes) + cls)

let next d s c = next_class d s (class_of d c)

(* The raw 256-column row walk the classes compress; kept as the oracle
   for the class-correctness property (next ≡ next_raw on all bytes). *)
let next_raw d s c = d.trans.(s).(Char.code c)

(* --- Shortest-witness BFS ------------------------------------------------

   Shortest byte strings from the start state, over the class-compressed
   transition table.  Each class is represented by its most readable byte
   (letters/digits first, then other printable characters) so witnesses
   read as plausible lexemes, not control-character soup. *)

let class_reps d =
  let score c =
    match Char.chr c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> 3
    | ' ' -> 2
    | '!' .. '~' -> 2
    | _ -> 1
  in
  let rep = Array.make d.num_classes (-1) in
  let best = Array.make d.num_classes (-1) in
  for c = 0 to 255 do
    let k = Bigarray.Array1.get d.classes c in
    if score c > best.(k) then begin
      best.(k) <- score c;
      rep.(k) <- c
    end
  done;
  rep

let witness_table d =
  let n = num_states d in
  let rep = class_reps d in
  let dist = Array.make n (-1) in
  let back = Array.make n (-1, -1) in  (* predecessor state, class *)
  let q = Queue.create () in
  dist.(d.start) <- 0;
  Queue.add d.start q;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    for k = 0 to d.num_classes - 1 do
      let s' = next_class d s k in
      if s' >= 0 && dist.(s') < 0 then begin
        dist.(s') <- dist.(s) + 1;
        back.(s') <- (s, k);
        Queue.add s' q
      end
    done
  done;
  Array.init n (fun s ->
      if dist.(s) < 0 then None
      else begin
        let buf = Bytes.create dist.(s) in
        let rec fill s i =
          if i >= 0 then begin
            let p, k = back.(s) in
            Bytes.set buf i (Char.chr rep.(k));
            fill p (i - 1)
          end
        in
        fill s (dist.(s) - 1);
        Some (Bytes.to_string buf)
      end)

let witness d s =
  if s < 0 || s >= num_states d then None else (witness_table d).(s)

let class_rep d k =
  if k < 0 || k >= d.num_classes then '?'
  else Char.chr (class_reps d).(k)

(* Shortest string from [s] to any accepting state (forward BFS).  [None]
   when no accepting state is reachable — such a state is "doomed": every
   scan passing through it must backtrack to an earlier match or fail. *)
let accept_witness d s =
  if s < 0 || s >= num_states d then None
  else begin
    let n = num_states d in
    let rep = class_reps d in
    let dist = Array.make n (-1) in
    let back = Array.make n (-1, -1) in
    let q = Queue.create () in
    dist.(s) <- 0;
    Queue.add s q;
    let found = ref (if d.accept_ix.(s) >= 0 then Some s else None) in
    while !found = None && not (Queue.is_empty q) do
      let u = Queue.pop q in
      let k = ref 0 in
      while !found = None && !k < d.num_classes do
        let u' = next_class d u !k in
        if u' >= 0 && dist.(u') < 0 then begin
          dist.(u') <- dist.(u) + 1;
          back.(u') <- (u, !k);
          if d.accept_ix.(u') >= 0 then found := Some u'
          else Queue.add u' q
        end;
        incr k
      done
    done;
    match !found with
    | None -> None
    | Some t ->
      let buf = Bytes.create dist.(t) in
      let rec fill u i =
        if i >= 0 then begin
          let p, k = back.(u) in
          Bytes.set buf i (Char.chr rep.(k));
          fill p (i - 1)
        end
      in
      fill t (dist.(t) - 1);
      Some (Bytes.to_string buf)
  end

let rule_witness d ix =
  let table = witness_table d in
  let best = ref None in
  for s = 0 to num_states d - 1 do
    if d.accept_ix.(s) = ix then
      match table.(s), !best with
      | Some w, Some b when String.length w >= String.length b -> ()
      | Some w, _ -> best := Some w
      | None, _ -> ()
  done;
  !best

module Key = struct
  type t = int list

  let compare = Stdlib.compare
end

module Key_map = Map.Make (Key)

(* Partition the 256 byte columns into equivalence classes: two bytes are
   interchangeable iff every state moves to the same successor on both.
   Scanners over ASCII-ish rule sets collapse 256 columns to a few dozen
   classes, so the flat class-indexed table stays cache-resident where the
   per-state 256-entry rows do not. *)
let build_classes trans =
  let n = Array.length trans in
  let tbl = Hashtbl.create 64 in
  let classes = Array.make 256 0 in
  let reps = ref [] in
  let num = ref 0 in
  for c = 0 to 255 do
    let column = Array.init n (fun s -> trans.(s).(c)) in
    match Hashtbl.find_opt tbl column with
    | Some id -> classes.(c) <- id
    | None ->
      let id = !num in
      incr num;
      Hashtbl.add tbl column id;
      classes.(c) <- id;
      reps := c :: !reps
  done;
  let reps = Array.of_list (List.rev !reps) in
  let nc = !num in
  let ctrans = Array.make (n * nc) (-1) in
  for s = 0 to n - 1 do
    for k = 0 to nc - 1 do
      ctrans.((s * nc) + k) <- trans.(s).(reps.(k))
    done
  done;
  (classes, nc, ctrans)

let of_nfa nfa =
  let intervals = Nfa.intervals nfa in
  let marks = Nfa.marks nfa in
  let ids = ref Key_map.empty in
  let trans_acc = ref [] in
  let accepts_acc = ref [] in
  let next_id = ref 0 in
  let rec intern states =
    match Key_map.find_opt states !ids with
    | Some id -> id
    | None ->
      let id = !next_id in
      incr next_id;
      ids := Key_map.add states id !ids;
      let accept =
        List.fold_left
          (fun acc s ->
            match Nfa.accept_rule nfa s, acc with
            | Some ix, Some ix' -> Some (min ix ix')
            | Some ix, None -> Some ix
            | None, acc -> acc)
          None states
      in
      accepts_acc := (id, accept) :: !accepts_acc;
      let row = Array.make 256 (-1) in
      (* Reserve the row slot now so recursion sees a stable order. *)
      trans_acc := (id, row) :: !trans_acc;
      (* One step per interval, in ascending byte order: the states are
         numbered exactly as a byte-by-byte walk would number them. *)
      List.iter
        (fun (lo, hi) ->
          match
            Nfa.eps_closure marks (Nfa.step marks states (Char.chr lo))
          with
          | [] -> ()
          | states' -> Array.fill row lo (hi - lo + 1) (intern states'))
        intervals;
      id
  in
  let start = intern (Nfa.eps_closure marks [ Nfa.start nfa ]) in
  let n = !next_id in
  let trans = Array.make n [||] in
  List.iter (fun (id, row) -> trans.(id) <- row) !trans_acc;
  let accepts = Array.make n None in
  List.iter (fun (id, a) -> accepts.(id) <- a) !accepts_acc;
  let accept_ix = Array.map (function Some ix -> ix | None -> -1) accepts in
  if n > 32767 then
    invalid_arg
      (Printf.sprintf
         "Dfa.of_nfa: %d states exceed the int16 transition-table range" n);
  let classes, num_classes, ctrans = build_classes trans in
  let classes_ba =
    Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout 256
  in
  Array.iteri (Bigarray.Array1.set classes_ba) classes;
  let ctrans_ba =
    Bigarray.Array1.create Bigarray.int16_signed Bigarray.c_layout
      (Array.length ctrans)
  in
  Array.iteri (Bigarray.Array1.set ctrans_ba) ctrans;
  {
    start;
    trans;
    accepts;
    accept_ix;
    classes = classes_ba;
    num_classes;
    ctrans = ctrans_ba;
  }
