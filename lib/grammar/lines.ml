(* Newline-offset table: positions are recovered from byte offsets by
   binary search instead of being tracked during scanning, so the lexer
   hot loop never touches line/column state.  Built once per input (O(n))
   and shared by every consumer that needs a position — error messages,
   tree leaves, the MiniPython indenter. *)

type t = int array
(* Byte offset of the first character of each line; [starts.(0) = 0]. *)

let build input =
  let n = String.length input in
  let count = ref 1 in
  for i = 0 to n - 1 do
    if String.unsafe_get input i = '\n' then incr count
  done;
  let starts = Array.make !count 0 in
  let next = ref 1 in
  for i = 0 to n - 1 do
    if String.unsafe_get input i = '\n' then begin
      starts.(!next) <- i + 1;
      incr next
    end
  done;
  starts

let num_lines = Array.length

(* Largest index [k] with [starts.(k) <= ofs]. *)
let line_index starts ofs =
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= ofs then lo := mid else hi := mid - 1
  done;
  !lo

let pos starts ofs =
  let k = line_index starts ofs in
  (k + 1, ofs - starts.(k))

(* Whether line [k] contains [ofs]: the largest [k] with
   [starts.(k) <= ofs], without the search. *)
let on_line starts k ofs =
  k >= 0
  && k < Array.length starts
  && Array.unsafe_get starts k <= ofs
  && (k + 1 = Array.length starts || ofs < Array.unsafe_get starts (k + 1))

let locate starts ~hint ofs =
  if on_line starts hint ofs then hint
  else if on_line starts (hint + 1) ofs then hint + 1
  else line_index starts ofs

let line_offset starts k = starts.(k)

let line_start starts ofs = starts.(line_index starts ofs)
