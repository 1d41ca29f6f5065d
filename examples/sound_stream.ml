(* Stream a sine wave through the untrusted snd-hda-intel driver and watch
   the period interrupts pace the application — the realtime workload the
   paper says an administrator would give sched_setscheduler (§4.1).

     dune exec examples/sound_stream.exe *)

let () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let hda = Hda_dev.create eng () in
  let bdf = Kernel.attach_pci k (Hda_dev.device hda) in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"player" (fun () ->
         let sp = Safe_pci.init k in
         let s =
           match Driver_host.launch k sp Driver_host.audio ~bdf Hda.driver with
           | Ok s -> s
           | Error e -> failwith e
         in
         (* Realtime scheduling for the audio driver process. *)
         Process.set_scheduler (Driver_host.proc s) Process.Realtime;
         let proxy = Driver_host.proxy s in
         (match Proxy_audio.set_volume proxy 70 with
          | Ok () -> print_endline "mixer: volume 70"
          | Error e -> failwith e);
         (match Proxy_audio.start proxy with
          | Ok () -> print_endline "stream started (48 kHz stereo s16)"
          | Error e -> failwith e);
         (* 440 Hz sine, s16le stereo. *)
         let sine =
           Bytes.init 19200 (fun i ->
               let frame = i / 4 in
               let v =
                 int_of_float (12000.0 *. sin (2.0 *. Float.pi *. 440.0 *. float frame /. 48000.0))
               in
               if i land 1 = 0 then Char.chr (v land 0xff)
               else Char.chr ((v asr 8) land 0xff))
         in
         let fed = ref 0 in
         for period = 1 to 10 do
           (* Feed ~one period of PCM, paced by the period interrupts. *)
           let off = ref 0 in
           while !off < 1920 do
             let chunk = Bytes.sub sine ((!fed + !off) mod 17000) 1920 in
             let n = Proxy_audio.write proxy chunk in
             if n = 0 then ignore (Proxy_audio.wait_period proxy ~timeout_ns:200_000_000 : bool)
             else off := !off + n
           done;
           fed := !fed + 1920;
           if Proxy_audio.wait_period proxy ~timeout_ns:200_000_000 then
             Printf.printf "period %2d elapsed — device has played %6d bytes\n" period
               (Hda_dev.bytes_played hda)
         done;
         (match Proxy_audio.stop proxy with
          | Ok () -> () | Error _ -> ());
         Printf.printf "done: %d bytes played, %d buffers completed, PCM checksum 0x%x\n"
           (Hda_dev.bytes_played hda) (Hda_dev.buffers_completed hda)
           (Hda_dev.audio_checksum hda))
     : Fiber.t);
  Engine.run ~max_time:5_000_000_000 eng
