(* Parses each file named on the command line as one JSON document with
   Json.parse and prints one verdict line per file; exits 1 if any file
   is not valid JSON. *)

let () =
  let bad = ref false in
  Array.iteri
    (fun i path ->
      if i > 0 then
        let text = In_channel.with_open_bin path In_channel.input_all in
        match Json.parse (String.trim text) with
        | Ok _ -> Printf.printf "%s: ok\n" (Filename.basename path)
        | Error m ->
          bad := true;
          Printf.printf "%s: invalid JSON: %s\n" (Filename.basename path) m)
    Sys.argv;
  if !bad then exit 1
