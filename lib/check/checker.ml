exception Invalid of Diagnostic.t list

type rule = Diagnostic.t list

let ok = []
let all = List.concat

let fail ?severity ~code ~path message =
  [ Diagnostic.make ?severity ~code ~path message ]

let check ?severity ~code ~path cond message =
  if cond then [] else fail ?severity ~code ~path message

let min_int ~code ~path ~min:bound v =
  if v >= bound then []
  else fail ~code ~path (Printf.sprintf "must be at least %d, got %d" bound v)

let min_float ~code ~path ~min:bound v =
  if Float.is_finite v && v >= bound then []
  else fail ~code ~path (Printf.sprintf "must be at least %g, got %g" bound v)

let positive_float ~code ~path v =
  if Float.is_finite v && v > 0.0 then []
  else fail ~code ~path (Printf.sprintf "must be positive, got %g" v)

let fraction ~code ~path v =
  if Float.is_finite v && v >= 0.0 && v <= 1.0 then []
  else fail ~code ~path (Printf.sprintf "must be within [0, 1], got %g" v)

let positive_fraction ~code ~path v =
  if Float.is_finite v && v > 0.0 && v <= 1.0 then []
  else fail ~code ~path (Printf.sprintf "must be within (0, 1], got %g" v)

let sum_to_one ?(tol = 1e-6) ~code ~path parts =
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 parts in
  if Float.is_finite total && Float.abs (total -. 1.0) <= tol then []
  else
    fail ~code ~path
      (Printf.sprintf "%s must sum to 1, got %g"
         (String.concat " + " (List.map fst parts))
         total)

let errors rule = List.filter Diagnostic.is_error rule

let warnings rule =
  List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.severity = Diagnostic.Warning) rule

let has_errors rule = List.exists Diagnostic.is_error rule

let run_exn rule =
  match errors rule with [] -> () | errs -> raise (Invalid errs)

let ensure ?severity ~code ~path cond message =
  if cond then ()
  else raise (Invalid [ Diagnostic.make ?severity ~code ~path message ])

let internal_error message =
  raise (Invalid [ Diagnostic.make ~code:"FOM-X001" ~path:"internal" message ])

let summary rule =
  let count label = function
    | 0 -> None
    | 1 -> Some ("1 " ^ label)
    | n -> Some (Printf.sprintf "%d %ss" n label)
  in
  let ne = List.length (errors rule) in
  let nw = List.length (warnings rule) in
  let nh = List.length rule - ne - nw in
  match List.filter_map Fun.id [ count "error" ne; count "warning" nw; count "hint" nh ] with
  | [] -> "no diagnostics"
  | parts -> String.concat ", " parts

let pp_report fmt rule =
  let sorted = List.stable_sort Diagnostic.compare rule in
  List.iter (fun d -> Format.fprintf fmt "%a@\n" Diagnostic.pp d) sorted;
  Format.pp_print_string fmt (summary rule)

let () =
  Printexc.register_printer (function
    | Invalid diags ->
        Some
          (Printf.sprintf "Invalid configuration:\n%s"
             (String.concat "\n"
                (List.map Diagnostic.to_string (List.stable_sort Diagnostic.compare diags))))
    | _ -> None)
