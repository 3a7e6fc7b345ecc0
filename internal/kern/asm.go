package kern

import "fmt"

// Source returns the complete pkos kernel assembly. All layout constants
// are injected as .equ definitions so the assembly and the Go side cannot
// drift apart.
func Source() string {
	equates := fmt.Sprintf(`
# ---- generated equates (see layout.go) ----
        .equ IO_PUTCHAR,   %#x
        .equ IO_PUTINT,    %#x
        .equ IO_HALT,      %#x
        .equ IO_CURPID,    %#x
        .equ IO_SVCPUSH,   %#x
        .equ IO_SVCPOP,    %#x
        .equ IO_SVCRECLS,  %#x
        .equ IO_DISKCMD,   %#x
        .equ IO_DISKSEC,   %#x
        .equ IO_DISKCNT,   %#x
        .equ IO_DISKDMA,   %#x
        .equ IO_DISKST,    %#x
        .equ IO_DISKACK,   %#x
        .equ IO_TIMERIVL,  %#x
        .equ IO_TIMERACK,  %#x
        .equ BOOTINFO,     %#x
        .equ KSEG2PT,      %#x
        .equ USTACKTOP,    %#x
        .equ USTACKLO,     %#x
        .equ PHYS_KHEAP,   %#x
        .equ PHYS_UPOOL,   %#x
        .equ ANN_TLBMISS,  %d
        .equ ANN_DZERO,    %d
        .equ ANN_DUPOLL,   %d
`,
		KSEG1(SimPutChar), KSEG1(SimPutInt), KSEG1(SimHalt), KSEG1(SimCurPid),
		KSEG1(SimSvcPush), KSEG1(SimSvcPop), KSEG1(SimSvcRecls),
		KSEG1(DiskCmd), KSEG1(DiskSector), KSEG1(DiskCount), KSEG1(DiskDMA),
		KSEG1(DiskStatus), KSEG1(DiskAck),
		KSEG1(TimerInterval), KSEG1(TimerAck),
		uint32(0x8000_0000+PhysBootInfo), uint32(Kseg2PTBase), UserStackTop, UserStackLo,
		PhysKernHeap, PhysUserPool,
		AnnSvcTLBMiss, AnnSvcDemandZero, AnnSvcDuPoll)

	return equates + kernelAsm
}

const kernelAsm = `
# ===========================================================================
# pkos - a small IRIX-flavoured kernel for the M32 simulator.
#
# Register conventions inside handlers: after the trapframe is saved, s7
# holds the trapframe pointer and sp a normal kernel stack below it. k0/k1
# are reserved for the two fast refill handlers, which may preempt any
# kernel code running with EXL=0.
# ===========================================================================

        .equ TF_EPC,    128
        .equ TF_STATUS, 132
        .equ TF_CAUSE,  136
        .equ TF_BADVA,  140
        .equ TF_SIZE,   144

        .equ ST_KERNEL, 0x0000      # UM=0 EXL=0 IE=0
        .equ ST_USER,   0x8813      # UM|EXL|IE|IM3|IM7 (eret clears EXL)
        .equ ST_IDLEIE, 0x8801      # IE|IM3|IM7, kernel mode

        .equ P_STATE,     0
        .equ P_PID,       4
        .equ P_ASID,      8
        .equ P_KSP,       12
        .equ P_KSTACKTOP, 16
        .equ P_BRK,       20
        .equ P_HEAPBASE,  24
        .equ P_CTX,       28
        .equ P_FDTAB,     32
        .equ P_SIZE,      160
        .equ NPROC,       4

        .equ FD_USED,  0
        .equ FD_START, 4
        .equ FD_SIZE,  8
        .equ FD_OFF,   12
        .equ FD_ENT,   16
        .equ NFD,      8

        .equ S_FREE,    0
        .equ S_READY,   1
        .equ S_RUNNING, 2
        .equ S_BLOCKED, 3

        .equ FC_WAYS,   64
        .equ FC_BLKSZ,  4096
        .equ FCT_BLOCK, 0
        .equ FCT_FLAGS, 4           # bit0 valid, bit1 dirty
        .equ FCT_ENT,   8

# ===========================================================================
# Exception vectors
# ===========================================================================

        .org 0x80000000             # ---- utlb: fast user TLB refill ----
        mfc0  k0, $context          # context = PT base | vpn<<2
        lw    k0, 0(k0)             # load PTE (kseg2: may nest into tlb_miss)
        mtc0  k0, $entrylo
        tlbwr
        eret

        .org 0x80000080             # ---- general exception vector ----
        j     general_entry

# ===========================================================================
# Kernel entry (reset vector)
# ===========================================================================

        .org 0x80020000
kstart:
        la    sp, bootstack_top
        # verify boot info
        la    t0, BOOTINFO
        lw    t1, 0(t0)
        li    t2, 0x504b4f53
        beq   t1, t2, boot_ok
        la    a0, str_badboot
        jal   panic
boot_ok:
        # stash boot info into kernel variables
        lw    t1, 4(t0)
        la    t2, uentry
        sw    t1, 0(t2)
        lw    t1, 8(t0)
        la    t2, uimgva
        sw    t1, 0(t2)
        lw    t1, 12(t0)
        la    t2, uimgpages
        sw    t1, 0(t2)
        lw    t1, 16(t0)
        la    t2, uimgphys
        sw    t1, 0(t2)
        lw    t1, 20(t0)
        la    t2, ubrk
        sw    t1, 0(t2)
        lw    t1, 28(t0)
        la    t2, bootflags
        sw    t1, 0(t2)

        # kernel heap bump allocator
        la    t1, PHYS_KHEAP
        la    t2, kheapbump
        sw    t1, 0(t2)

        # user frame pool
        la    t1, PHYS_UPOOL
        la    t2, framebump
        sw    t1, 0(t2)
        la    t2, framelist
        sw    zero, 0(t2)

        # idle process: proc[0] adopts the boot stack
        la    t0, procs
        li    t1, S_RUNNING
        sw    t1, P_STATE(t0)
        sw    zero, P_PID(t0)
        sw    zero, P_ASID(t0)
        la    t1, bootstack_top
        sw    t1, P_KSTACKTOP(t0)
        la    t1, curproc
        sw    t0, 0(t1)
        la    t1, IO_CURPID
        sw    zero, 0(t1)

        # create the user process (pid 1)
        li    a0, 1
        jal   exec_user

        # start the clock
        la    t0, BOOTINFO
        lw    t1, 24(t0)
        la    t0, IO_TIMERIVL
        sw    t1, 0(t0)

        # fall into the idle loop (IRIX idles by busy-waiting)
        j     idle_loop

# ===========================================================================
# Idle loop. Runs with interrupts enabled; spins on want_resched and tops up
# the zeroed-page pool in the background, as IRIX does. This is deliberately
# a busy-wait: the paper observes that IRIX idle is not a low power state
# because the processor keeps fetching, executing, and touching memory.
# ===========================================================================

        .equ ZP_TARGET, 48
        .equ ZP_LOW,    16
        .equ ZP_MAX,    256

idle_loop:
        li    t0, ST_IDLEIE
        mtc0  t0, $status           # interrupt delivery window
        nop
        li    t0, ST_KERNEL
        mtc0  t0, $status           # interrupts off for the checks
        la    t1, want_resched
        lw    t0, 0(t1)
        beqz  t0, idle_pool
        sw    zero, 0(t1)
        jal   sched
        j     idle_loop
idle_pool:
        # A halting idle (paper §5's optimization) does no background work
        # at all: the processor stops instead of executing the idle process.
        la    t0, bootflags
        lw    t0, 0(t0)
        andi  t0, t0, 1
        bnez  t0, idle_relax
        # Otherwise top up the zeroed-page pool with hysteresis: start a
        # filling burst only when the pool drops below the low-water mark,
        # then fill to the target. Interrupt windows between pages keep
        # latency bounded; the rest of the idle time is the busy-wait spin.
        la    t2, zp_filling
        lw    t3, 0(t2)
        la    t0, zp_count
        lw    t0, 0(t0)
        bnez  t3, idle_fillburst
        slti  t0, t0, ZP_LOW
        beqz  t0, idle_relax
        addiu t3, zero, 1
        sw    t3, 0(t2)
        j     idle_loop
idle_fillburst:
        slti  t0, t0, ZP_TARGET
        bnez  t0, idle_fillone
        sw    zero, 0(t2)
        j     idle_relax
idle_fillone:
        jal   zp_fill_one
        j     idle_loop
idle_relax:
        # With the idle-halt flag (paper §5's proposed optimization), stop
        # the clock with WAIT instead of busy-waiting: the processor sleeps
        # until the next interrupt, consuming no pipeline activity.
        la    t0, bootflags
        lw    t0, 0(t0)
        andi  t0, t0, 1
        beqz  t0, idle_busy
        li    t0, ST_IDLEIE
        mtc0  t0, $status
        wait
        j     idle_loop
idle_busy:
        li    t0, ST_IDLEIE
        mtc0  t0, $status           # enable interrupts and spin a while
        la    t1, want_resched
        la    t3, IO_DISKST
        li    t2, 4
idle_spin:
        lw    t0, 0(t1)
        bnez  t0, idle_loop
        addiu t2, t2, -1
        bnez  t2, idle_spin
        lw    t0, 0(t3)             # poll the device unit (uncached), as
        li    t2, 4                 # the IRIX idle/du_poll path does
        lw    t0, 0(t1)
        beqz  t0, idle_spin
        j     idle_loop

# zp_fill_one: allocate a frame, zero it, push it onto the pool. Interrupts
# must be off (callers guarantee this).
zp_fill_one:
        addiu sp, sp, -12
        sw    ra, 8(sp)
        sw    s0, 4(sp)
        jal   alloc_uframe
        addu  s0, v0, zero
        lui   t0, 0x8000
        addu  a0, s0, t0
        li    a1, 4096
        jal   bzero
        la    a0, zp_lock
        jal   lock_acquire
        la    t0, zp_count
        lw    t1, 0(t0)
        sll   t2, t1, 2
        la    t3, zp_list
        addu  t2, t2, t3
        sw    s0, 0(t2)
        addiu t1, t1, 1
        sw    t1, 0(t0)
        la    a0, zp_lock
        jal   lock_release
        lw    s0, 4(sp)
        lw    ra, 8(sp)
        addiu sp, sp, 12
        ret

# zp_pop: v0 = a pre-zeroed frame, or 0 if the pool is empty.
zp_pop:
        addiu sp, sp, -12
        sw    ra, 8(sp)
        sw    s0, 4(sp)
        la    a0, zp_lock
        jal   lock_acquire
        la    t0, zp_count
        lw    t1, 0(t0)
        beqz  t1, zp_empty
        addiu t1, t1, -1
        sw    t1, 0(t0)
        sll   t2, t1, 2
        la    t3, zp_list
        addu  t2, t2, t3
        lw    s0, 0(t2)
        b     zp_out
zp_empty:
        addiu s0, zero, 0
zp_out:
        la    a0, zp_lock
        jal   lock_release
        addu  v0, s0, zero
        lw    s0, 4(sp)
        lw    ra, 8(sp)
        addiu sp, sp, 12
        ret

# ===========================================================================
# General exception handling
# ===========================================================================

general_entry:
        # ---- fast path: kseg2 TLB refill (tlb_miss service) ----
        mfc0  k0, $cause
        andi  k0, k0, 0x7c          # exccode<<2
        addiu k1, zero, 8           # TLBL<<2
        beq   k0, k1, ge_tlbq
        addiu k1, zero, 12          # TLBS<<2
        bne   k0, k1, ge_save
ge_tlbq:
        mfc0  k1, $badvaddr
        srl   k1, k1, 30
        addiu k0, zero, 3
        bne   k1, k0, ge_save       # not kseg2: full vfault path
        # reclassify the auto-pushed vfault service as tlb_miss
        la    k0, IO_SVCRECLS
        addiu k1, zero, ANN_TLBMISS
        sw    k1, 0(k0)
        # index the pinned kseg2 page table directory (kpt)
        mfc0  k0, $badvaddr
        srl   k0, k0, 12
        lui   k1, 0xc               # 0xC0000 = base kseg2 vpn
        subu  k0, k0, k1            # kpt index
        sll   k0, k0, 2
        la    k1, kpt
        addu  k0, k0, k1
        lw    k0, 0(k0)             # kpt entry (kseg0: cannot nest)
        beqz  k0, ge_save           # unallocated PT page: slow path
        mtc0  k0, $entrylo
        tlbwr
        eret

        # ---- full save path ----
ge_save:
        mfc0  k0, $status
        andi  k0, k0, 0x10          # came from user mode?
        beqz  k0, ge_ksp
        la    k1, curproc
        lw    k1, 0(k1)
        lw    k1, P_KSTACKTOP(k1)
        b     ge_havesp
ge_ksp:
        addu  k1, sp, zero
ge_havesp:
        addiu k1, k1, -TF_SIZE
        sw    sp, 116(k1)           # slot 29 = original sp
        sw    at, 4(k1)
        sw    v0, 8(k1)
        sw    v1, 12(k1)
        sw    a0, 16(k1)
        sw    a1, 20(k1)
        sw    a2, 24(k1)
        sw    a3, 28(k1)
        sw    t0, 32(k1)
        sw    t1, 36(k1)
        sw    t2, 40(k1)
        sw    t3, 44(k1)
        sw    t4, 48(k1)
        sw    t5, 52(k1)
        sw    t6, 56(k1)
        sw    t7, 60(k1)
        sw    s0, 64(k1)
        sw    s1, 68(k1)
        sw    s2, 72(k1)
        sw    s3, 76(k1)
        sw    s4, 80(k1)
        sw    s5, 84(k1)
        sw    s6, 88(k1)
        sw    s7, 92(k1)
        sw    t8, 96(k1)
        sw    t9, 100(k1)
        sw    gp, 112(k1)
        sw    fp, 120(k1)
        sw    ra, 124(k1)
        addu  sp, k1, zero
        mfc0  k0, $epc
        sw    k0, TF_EPC(sp)
        mfc0  k0, $status
        sw    k0, TF_STATUS(sp)
        mfc0  k0, $cause
        sw    k0, TF_CAUSE(sp)
        mfc0  k0, $badvaddr
        sw    k0, TF_BADVA(sp)
        addu  s7, sp, zero          # s7 = trapframe for the whole handler
        addiu sp, sp, -16           # small call frame below the TF

        # enter kernel proper: kernel mode, EXL off (nested refills OK),
        # interrupts off
        li    t0, ST_KERNEL
        mtc0  t0, $status

        # dispatch on exception code
        lw    t0, TF_CAUSE(s7)
        srl   t0, t0, 2
        andi  t0, t0, 0x1f
        beqz  t0, handle_irq
        addiu t1, zero, 8
        beq   t0, t1, handle_syscall
        addiu t1, zero, 2
        beq   t0, t1, handle_tlbflt
        addiu t1, zero, 3
        beq   t0, t1, handle_tlbflt
        # anything else is fatal
        la    a0, str_unexp
        jal   panic

# ---- trap return: restore the frame at s7 and eret --------------------

trap_return:
        addu  sp, s7, zero
        lw    k0, TF_STATUS(sp)
        mtc0  k0, $status           # EXL=1 again: atomic return window
        lw    k0, TF_EPC(sp)
        mtc0  k0, $epc
        lw    at, 4(sp)
        lw    v0, 8(sp)
        lw    v1, 12(sp)
        lw    a0, 16(sp)
        lw    a1, 20(sp)
        lw    a2, 24(sp)
        lw    a3, 28(sp)
        lw    t0, 32(sp)
        lw    t1, 36(sp)
        lw    t2, 40(sp)
        lw    t3, 44(sp)
        lw    t4, 48(sp)
        lw    t5, 52(sp)
        lw    t6, 56(sp)
        lw    t7, 60(sp)
        lw    s0, 64(sp)
        lw    s1, 68(sp)
        lw    s2, 72(sp)
        lw    s3, 76(sp)
        lw    s4, 80(sp)
        lw    s5, 84(sp)
        lw    s6, 88(sp)
        lw    s7, 92(sp)
        lw    t8, 96(sp)
        lw    t9, 100(sp)
        lw    gp, 112(sp)
        lw    fp, 120(sp)
        lw    ra, 124(sp)
        lw    sp, 116(sp)
        eret

# ===========================================================================
# Interrupts: clock tick (IP7) and disk completion (IP3)
# ===========================================================================

handle_irq:
        lw    t0, TF_CAUSE(s7)
        andi  t1, t0, 0x8000        # IP7: timer
        beqz  t1, irq_disk
        jal   clock_tick
        lw    t0, TF_CAUSE(s7)
irq_disk:
        andi  t1, t0, 0x0800        # IP3: disk
        beqz  t1, irq_done
        jal   disk_intr
irq_done:
        j     trap_return

# clock_tick: acknowledge, count, poll devices, set resched hint.
clock_tick:
        addiu sp, sp, -8
        sw    ra, 4(sp)
        la    t0, IO_TIMERACK
        sw    zero, 0(t0)
        la    t0, ticks
        lw    t1, 0(t0)
        addiu t1, t1, 1
        sw    t1, 0(t0)
        # du_poll: poll the disk unit when an I/O is outstanding
        la    t0, disk_waiter
        lw    t0, 0(t0)
        beqz  t0, tick_nopoll
        la    t0, IO_SVCPUSH
        addiu t1, zero, ANN_DUPOLL
        sw    t1, 0(t0)
        la    t0, IO_DISKST
        lw    t1, 0(t0)             # uncached device register read
        la    t0, IO_SVCPOP
        sw    zero, 0(t0)
tick_nopoll:
        # hint the idle loop if anything is runnable
        jal   any_ready
        beqz  v0, tick_out
        la    t0, want_resched
        addiu t1, zero, 1
        sw    t1, 0(t0)
tick_out:
        lw    ra, 4(sp)
        addiu sp, sp, 8
        ret

# disk_intr: acknowledge and wake the waiter.
disk_intr:
        la    t0, IO_DISKACK
        sw    zero, 0(t0)
        la    t0, disk_waiter
        lw    t1, 0(t0)
        beqz  t1, di_out
        sw    zero, 0(t0)
        addiu t2, zero, S_READY
        sw    t2, P_STATE(t1)
        la    t0, want_resched
        addiu t1, zero, 1
        sw    t1, 0(t0)
di_out:
        ret

# any_ready: v0 = 1 if any user proc is READY.
any_ready:
        la    t0, procs
        addiu t0, t0, P_SIZE        # skip idle
        addiu t1, zero, NPROC - 1
        addiu v0, zero, 0
ar_loop:
        lw    t2, P_STATE(t0)
        addiu t3, zero, S_READY
        bne   t2, t3, ar_next
        addiu v0, zero, 1
        ret
ar_next:
        addiu t0, t0, P_SIZE
        addiu t1, t1, -1
        bnez  t1, ar_loop
        ret

# ===========================================================================
# TLB faults reaching the full handler: kseg2 PT-page allocation or user
# vfault (invalid PTE) leading to demand_zero.
# ===========================================================================

handle_tlbflt:
        lw    t0, TF_BADVA(s7)
        srl   t1, t0, 30
        addiu t2, zero, 3
        beq   t1, t2, kseg2_alloc   # kseg2 with kpt hole
        # user-space fault: vfault service (auto-classified by the machine)
        jal   vfault
        j     trap_return

# kseg2_alloc: allocate and zero a page-table page, install in kpt.
# (Still classified tlb_miss: the fast path reclassified before bailing.)
kseg2_alloc:
        lw    s0, TF_BADVA(s7)
        jal   alloc_kframe          # v0 = phys addr of a 4 KB frame
        # zero it through kseg0
        lui   t0, 0x8000
        addu  a0, v0, t0
        li    a1, 4096
        addu  s1, v0, zero
        jal   bzero
        # kpt[vpn - 0xC0000] = pfn | V|D|G
        srl   t0, s0, 12
        lui   t1, 0xc
        subu  t0, t0, t1
        sll   t0, t0, 2
        la    t1, kpt
        addu  t0, t0, t1
        addiu t2, zero, 7           # G|V|D
        addu  t2, s1, t2            # s1 is page-aligned phys
        sw    t2, 0(t0)
        j     trap_return           # refault takes the fast path

# vfault: decide whether the faulting user address is demand-zero.
vfault:
        addiu sp, sp, -16
        sw    ra, 12(sp)
        sw    s0, 8(sp)
        sw    s1, 4(sp)
        lw    s0, TF_BADVA(s7)
        la    t0, curproc
        lw    t1, 0(t0)
        # heap region: [heapbase, brk)
        lw    t2, P_HEAPBASE(t1)
        sltu  t3, s0, t2
        bnez  t3, vf_notheap
        lw    t2, P_BRK(t1)
        sltu  t3, s0, t2
        bnez  t3, vf_zero
vf_notheap:
        # stack region: [USTACKLO, 2GB)
        la    t2, USTACKLO
        sltu  t3, s0, t2
        beqz  t3, vf_zero
        # neither: fatal segmentation fault
        la    a0, str_segv
        jal   panic

vf_zero:
        # ---- demand_zero service ----
        la    t0, IO_SVCPUSH
        addiu t1, zero, ANN_DZERO
        sw    t1, 0(t0)
        # fast path: take a pre-zeroed frame from the pool the idle loop
        # maintains; otherwise allocate — pristine boot-cleared frames are
        # already zero, recycled ones are zeroed inline
        jal   zp_pop
        addu  s1, v0, zero
        bnez  s1, vf_havemem
        jal   alloc_uframe          # v0 = phys frame, v1 = pristine flag
        addu  s1, v0, zero
        bnez  v1, vf_havemem
        lui   t0, 0x8000
        addu  a0, s1, t0            # zero via kseg0
        li    a1, 4096
        jal   bzero
vf_havemem:
        # pte = frame | V|D
        addiu t0, zero, 6
        addu  t0, s1, t0
        # store into the process page table (kseg2; may nest tlb_miss)
        la    t1, curproc
        lw    t1, 0(t1)
        lw    t2, P_CTX(t1)
        srl   t3, s0, 12
        sll   t3, t3, 2
        addu  t2, t2, t3
        sw    t0, 0(t2)
        # patch the stale invalid TLB entry if still present
        lw    t1, TF_BADVA(s7)
        srl   t1, t1, 12
        sll   t1, t1, 12
        la    t2, curproc
        lw    t2, 0(t2)
        lw    t3, P_ASID(t2)
        or    t1, t1, t3
        mtc0  t1, $entryhi
        tlbp
        mfc0  t2, $index
        bltz  t2, vf_nopatch        # not in TLB any more
        mtc0  t0, $entrylo
        tlbwi
vf_nopatch:
        la    t0, IO_SVCPOP
        sw    zero, 0(t0)
        lw    s1, 4(sp)
        lw    s0, 8(sp)
        lw    ra, 12(sp)
        addiu sp, sp, 16
        ret

# ===========================================================================
# Syscalls
# ===========================================================================

handle_syscall:
        # restart after the syscall instruction
        lw    t0, TF_EPC(s7)
        addiu t0, t0, 4
        sw    t0, TF_EPC(s7)
        # bounds-check v0 and dispatch; args a0-a3 are still live
        lw    t0, 8(s7)             # saved v0 = syscall number
        sltiu t1, t0, 11
        beqz  t1, sc_bad
        sll   t0, t0, 2
        la    t1, sys_table
        addu  t1, t1, t0
        lw    t1, 0(t1)
        beqz  t1, sc_bad
        jalr  t1
        sw    v0, 8(s7)             # return value into the frame's v0
        j     trap_return
sc_bad:
        li    v0, 0xffffffff
        sw    v0, 8(s7)
        j     trap_return

sys_table:
        .word 0
        .word sys_exit
        .word sys_open
        .word sys_close
        .word sys_read
        .word sys_write
        .word sys_sbrk
        .word sys_gettime
        .word sys_cacheflush
        .word sys_xstat
        .word sys_yield

# ---- exit(code): end of the profiled period ----
sys_exit:
        la    t0, IO_HALT
        sw    a0, 0(t0)
exit_spin:                          # not reached; the machine stops
        j     exit_spin

# ---- open(path) -> fd or -1 ----
sys_open:
        addiu sp, sp, -24
        sw    ra, 20(sp)
        sw    s0, 16(sp)
        sw    s1, 12(sp)
        sw    s2, 8(sp)
        jal   dir_lookup            # a0 = user path; v0 = start sector, v1 = size (-1 if absent)
        addiu t0, zero, -1
        beq   v0, t0, open_fail
        addu  s0, v0, zero
        addu  s1, v1, zero
        # find a free fd slot; 0-2 are reserved for the standard streams
        la    t0, curproc
        lw    t0, 0(t0)
        addiu t1, t0, P_FDTAB
        addiu t1, t1, 48            # 3 * FD_ENT
        addiu t2, zero, 3
open_scan:
        lw    t3, FD_USED(t1)
        beqz  t3, open_found
        addiu t1, t1, FD_ENT
        addiu t2, t2, 1
        addiu t3, zero, NFD
        bne   t2, t3, open_scan
open_fail:
        li    v0, 0xffffffff
        b     open_out
open_found:
        addiu t3, zero, 1
        sw    t3, FD_USED(t1)
        sw    s0, FD_START(t1)
        sw    s1, FD_SIZE(t1)
        sw    zero, FD_OFF(t1)
        addu  v0, t2, zero
open_out:
        lw    s2, 8(sp)
        lw    s1, 12(sp)
        lw    s0, 16(sp)
        lw    ra, 20(sp)
        addiu sp, sp, 24
        ret

# ---- close(fd) ----
sys_close:
        addiu sp, sp, -8
        sw    ra, 4(sp)
        jal   fd_ptr
        beqz  v0, close_bad
        sw    zero, FD_USED(v0)
        addiu v0, zero, 0
        b     close_out
close_bad:
        li    v0, 0xffffffff
close_out:
        lw    ra, 4(sp)
        addiu sp, sp, 8
        ret

# fd_ptr: a0 = fd number -> v0 = &fdtab[fd] or 0. Preserves a0-a3.
fd_ptr:
        sltiu t0, a0, NFD
        beqz  t0, fdp_bad
        la    t1, curproc
        lw    t1, 0(t1)
        addiu t1, t1, P_FDTAB
        sll   t0, a0, 4
        addu  v0, t1, t0
        lw    t0, FD_USED(v0)
        beqz  t0, fdp_bad
        ret
fdp_bad:
        addiu v0, zero, 0
        ret

# ---- read(fd, buf, n) -> bytes read ----
# s0=fd entry, s1=user buf cursor, s2=bytes remaining, s3=bytes done,
# s4=file cursor (absolute byte on disk), s5=end byte
sys_read:
        addiu sp, sp, -32
        sw    ra, 28(sp)
        sw    s0, 24(sp)
        sw    s1, 20(sp)
        sw    s2, 16(sp)
        sw    s3, 12(sp)
        sw    s4, 8(sp)
        sw    s5, 4(sp)
        jal   fd_ptr
        beqz  v0, read_bad
        addu  s0, v0, zero
        addu  s1, a1, zero
        # clamp n to remaining file bytes
        lw    t0, FD_SIZE(s0)
        lw    t1, FD_OFF(s0)
        subu  t0, t0, t1            # remaining in file
        sltu  t2, t0, a2
        beqz  t2, read_nclamped
        addu  a2, t0, zero
read_nclamped:
        addu  s2, a2, zero
        addiu s3, zero, 0
        blez  s2, read_done
        # absolute byte position = start*512 + off
        lw    t0, FD_START(s0)
        sll   t0, t0, 9
        addu  s4, t0, t1
read_loop:
        # block number and offset within block
        srl   a0, s4, 12
        jal   fc_getblock           # v0 = kseg0 buffer (may sleep on disk)
        andi  t0, s4, 0xfff
        addu  t1, v0, t0            # src = buf + boff
        li    t2, 4096
        subu  t2, t2, t0            # bytes to end of block
        sltu  t3, s2, t2
        beqz  t3, read_chunk
        addu  t2, s2, zero
read_chunk:
        addu  s5, t2, zero          # s5 = chunk size (survives bcopy)
        # copy chunk bytes t1 -> s1; user stores may fault through
        # utlb/vfault, exactly as IRIX bcopy does
        addu  a0, t1, zero
        addu  a1, s1, zero
        addu  a2, t2, zero
        jal   bcopy
        addu  s1, s1, s5
        addu  s4, s4, s5
        addu  s3, s3, s5
        subu  s2, s2, s5
        bgtz  s2, read_loop
read_done:
        # advance the fd offset
        lw    t0, FD_OFF(s0)
        addu  t0, t0, s3
        sw    t0, FD_OFF(s0)
        addu  v0, s3, zero
        b     read_out
read_bad:
        li    v0, 0xffffffff
read_out:
        lw    s5, 4(sp)
        lw    s4, 8(sp)
        lw    s3, 12(sp)
        lw    s2, 16(sp)
        lw    s1, 20(sp)
        lw    s0, 24(sp)
        lw    ra, 28(sp)
        addiu sp, sp, 32
        ret

# ---- write(fd, buf, n) -> n ----
# fd 1 = console; otherwise writes into the file cache (dirty blocks).
sys_write:
        addiu sp, sp, -32
        sw    ra, 28(sp)
        sw    s0, 24(sp)
        sw    s1, 20(sp)
        sw    s2, 16(sp)
        sw    s3, 12(sp)
        sw    s4, 8(sp)
        sw    s5, 4(sp)
        addiu t0, zero, 1
        bne   a0, t0, write_file
        # console write: byte loop to the putchar port
        addu  s1, a1, zero
        addu  s2, a2, zero
        la    s3, IO_PUTCHAR
        addu  v0, a2, zero
wcon_loop:
        blez  s2, write_out
        lbu   t0, 0(s1)
        sw    t0, 0(s3)
        addiu s1, s1, 1
        addiu s2, s2, -1
        b     wcon_loop
write_file:
        jal   fd_ptr
        beqz  v0, write_bad
        addu  s0, v0, zero
        addu  s1, a1, zero
        addu  s2, a2, zero
        addiu s3, zero, 0           # done
        lw    t0, FD_START(s0)
        sll   t0, t0, 9
        lw    t1, FD_OFF(s0)
        addu  s4, t0, t1
write_loop:
        blez  s2, write_done
        srl   a0, s4, 12
        jal   fc_getblock
        jal   fc_markdirty          # takes the buffer address in v0
        andi  t0, s4, 0xfff
        addu  t1, v0, t0            # dst in cache buffer
        li    t2, 4096
        subu  t2, t2, t0
        sltu  t3, s2, t2
        beqz  t3, write_chunk
        addu  t2, s2, zero
write_chunk:
        addu  s5, t2, zero          # s5 = chunk size (survives bcopy)
        addu  a0, s1, zero          # src = user
        addu  a1, t1, zero          # dst = cache
        addu  a2, t2, zero
        jal   bcopy
        addu  s1, s1, s5
        addu  s4, s4, s5
        addu  s3, s3, s5
        subu  s2, s2, s5
        b     write_loop
write_done:
        lw    t0, FD_OFF(s0)
        addu  t0, t0, s3
        sw    t0, FD_OFF(s0)
        # grow the file size if we wrote past the end
        lw    t1, FD_SIZE(s0)
        sltu  t2, t1, t0
        beqz  t2, write_nosz
        sw    t0, FD_SIZE(s0)
write_nosz:
        addu  v0, s3, zero
        b     write_out
write_bad:
        li    v0, 0xffffffff
write_out:
        lw    s5, 4(sp)
        lw    s4, 8(sp)
        lw    s3, 12(sp)
        lw    s2, 16(sp)
        lw    s1, 20(sp)
        lw    s0, 24(sp)
        lw    ra, 28(sp)
        addiu sp, sp, 32
        ret

# ---- sbrk(n) -> previous break ----
sys_sbrk:
        la    t0, curproc
        lw    t0, 0(t0)
        lw    v0, P_BRK(t0)
        addu  t1, v0, a0
        sw    t1, P_BRK(t0)
        ret

# ---- gettime() -> cycle count ----
sys_gettime:
        mfc0  v0, $count
        ret

# ---- cacheflush(addr, len): writeback/invalidate I+D lines ----
# Used by the JVM's JIT after emitting code, exactly as on IRIX.
sys_cacheflush:
        addu  t0, a0, zero
        addu  t1, a0, a1            # end
        srl   t0, t0, 6
        sll   t0, t0, 6             # align down to 64B line
cf_loop:
        sltu  t2, t0, t1
        beqz  t2, cf_done
        cache 0, 0(t0)              # may utlb-fault on user addresses
        addiu t0, t0, 64
        b     cf_loop
cf_done:
        addiu v0, zero, 0
        ret

# ---- xstat(path) -> size or -1 ----
sys_xstat:
        addiu sp, sp, -8
        sw    ra, 4(sp)
        jal   dir_lookup
        addiu t0, zero, -1
        beq   v0, t0, xs_out        # v0 already -1
        addu  v0, v1, zero          # return the size
xs_out:
        lw    ra, 4(sp)
        addiu sp, sp, 8
        ret

# ---- yield() ----
sys_yield:
        addiu sp, sp, -8
        sw    ra, 4(sp)
        la    t0, curproc
        lw    t0, 0(t0)
        addiu t1, zero, S_READY
        sw    t1, P_STATE(t0)
        jal   sched
        lw    ra, 4(sp)
        addiu sp, sp, 8
        addiu v0, zero, 0
        ret

# ===========================================================================
# Directory lookup: a0 = user pointer to NUL-terminated name.
# Returns v0 = start sector (or -1), v1 = size in bytes.
# ===========================================================================

dir_lookup:
        addiu sp, sp, -48
        sw    ra, 44(sp)
        sw    s0, 40(sp)
        sw    s1, 36(sp)
        sw    s2, 32(sp)
        sw    s3, 28(sp)
        # copy the name (max 23 chars + NUL) to a kernel buffer on the stack
        addu  t0, a0, zero
        addu  t1, sp, zero          # 24-byte buffer at sp+0..23
        addiu t2, zero, 23
dl_copy:
        lbu   t3, 0(t0)
        sb    t3, 0(t1)
        beqz  t3, dl_copied
        addiu t0, t0, 1
        addiu t1, t1, 1
        addiu t2, t2, -1
        bnez  t2, dl_copy
        sb    zero, 0(t1)
dl_copied:
        addiu s0, zero, 0           # directory block index
dl_blocks:
        addu  a0, s0, zero
        jal   fc_getblock
        addu  s1, v0, zero          # block buffer
        addiu s2, zero, 0           # entry offset within block
dl_entries:
        addu  t0, s1, s2            # entry pointer
        lbu   t1, 0(t0)
        beqz  t1, dl_next           # empty slot
        # compare names (24 bytes max, NUL-padded)
        addu  t2, t0, zero          # entry name
        addu  t3, sp, zero          # wanted name
dl_cmp:
        lbu   t4, 0(t2)
        lbu   t5, 0(t3)
        bne   t4, t5, dl_next
        beqz  t4, dl_match
        addiu t2, t2, 1
        addiu t3, t3, 1
        b     dl_cmp
dl_match:
        addu  t0, s1, s2
        lw    v0, 24(t0)            # start sector
        lw    v1, 28(t0)            # size
        b     dl_out
dl_next:
        addiu s2, s2, 32
        addiu t0, zero, 4096
        bne   s2, t0, dl_entries
        addiu s0, s0, 1
        addiu t0, zero, 1           # DirSectors/SectorsPerBlk = 1 block
        bne   s0, t0, dl_blocks
        li    v0, 0xffffffff
        li    v1, 0
dl_out:
        lw    s3, 28(sp)
        lw    s2, 32(sp)
        lw    s1, 36(sp)
        lw    s0, 40(sp)
        lw    ra, 44(sp)
        addiu sp, sp, 48
        ret

# ===========================================================================
# File cache: FC_WAYS direct-mapped 4 KB buffers over disk blocks.
# ===========================================================================

# fc_getblock: a0 = block number -> v0 = kseg0 buffer address.
# May perform disk I/O (writeback + fill), blocking the caller.
fc_getblock:
        addiu sp, sp, -24
        sw    ra, 20(sp)
        sw    s0, 16(sp)
        sw    s1, 12(sp)
        sw    s2, 8(sp)
        addu  s0, a0, zero
        la    a0, fc_lock
        jal   lock_acquire
        # tag slot
        andi  t0, s0, FC_WAYS - 1
        sll   t1, t0, 3
        la    t2, fctags
        addu  s1, t2, t1            # s1 = &tag
        # buffer address
        sll   t1, t0, 12
        la    t2, fcdata
        addu  s2, t2, t1            # s2 = buffer
        lw    t0, FCT_FLAGS(s1)
        andi  t1, t0, 1
        beqz  t1, fc_miss
        lw    t1, FCT_BLOCK(s1)
        bne   t1, s0, fc_miss
        b     fc_hit
fc_miss:
        # writeback if valid+dirty
        lw    t0, FCT_FLAGS(s1)
        andi  t1, t0, 3
        addiu t2, zero, 3
        bne   t1, t2, fc_fill
        lw    a0, FCT_BLOCK(s1)
        sll   a0, a0, 3             # sector = block*8
        addiu a1, zero, 8
        lui   t0, 0x8000
        subu  a2, s2, t0            # phys addr of buffer
        addiu a3, zero, 2           # write command
        jal   disk_io
fc_fill:
        sw    s0, FCT_BLOCK(s1)
        addiu t0, zero, 1
        sw    t0, FCT_FLAGS(s1)
        sll   a0, s0, 3
        addiu a1, zero, 8
        lui   t0, 0x8000
        subu  a2, s2, t0
        addiu a3, zero, 1           # read command
        jal   disk_io
fc_hit:
        la    a0, fc_lock
        jal   lock_release
        addu  v0, s2, zero
        lw    s2, 8(sp)
        lw    s1, 12(sp)
        lw    s0, 16(sp)
        lw    ra, 20(sp)
        addiu sp, sp, 24
        ret

# fc_markdirty: v0 = buffer address returned by fc_getblock; marks its tag
# dirty. Preserves v0.
fc_markdirty:
        la    t0, fcdata
        subu  t1, v0, t0
        srl   t1, t1, 12            # way index
        sll   t1, t1, 3
        la    t0, fctags
        addu  t0, t0, t1
        lw    t2, FCT_FLAGS(t0)
        ori   t2, t2, 2
        sw    t2, FCT_FLAGS(t0)
        ret

# ===========================================================================
# Disk I/O: submit and block until the completion interrupt.
# a0 = sector, a1 = count, a2 = phys DMA address, a3 = command (1 r / 2 w)
# ===========================================================================

disk_io:
        addiu sp, sp, -8
        sw    ra, 4(sp)
        la    t0, IO_DISKSEC
        sw    a0, 0(t0)
        la    t0, IO_DISKCNT
        sw    a1, 0(t0)
        la    t0, IO_DISKDMA
        sw    a2, 0(t0)
        # register ourselves as the waiter before starting the disk
        la    t0, curproc
        lw    t1, 0(t0)
        la    t0, disk_waiter
        sw    t1, 0(t0)
        addiu t2, zero, S_BLOCKED
        sw    t2, P_STATE(t1)
        la    t0, IO_DISKCMD
        sw    a3, 0(t0)             # go
        jal   sched                 # run something else (the idle loop)
        # resumed here once the interrupt marked us READY and sched picked us
        lw    ra, 4(sp)
        addiu sp, sp, 8
        ret

# ===========================================================================
# Scheduler
# ===========================================================================

# sched: pick the next runnable process and switch to it.
sched:
        addiu sp, sp, -16
        sw    ra, 12(sp)
        sw    s0, 8(sp)
        sw    s1, 4(sp)
        la    a0, runq_lock
        jal   lock_acquire
        la    t0, curproc
        lw    s0, 0(t0)             # old
        # scan user procs for READY
        la    t0, procs
        addiu t1, t0, P_SIZE        # procs[1]
        addiu t2, zero, NPROC - 1
        addiu s1, zero, 0
sched_scan:
        lw    t3, P_STATE(t1)
        addiu t4, zero, S_READY
        bne   t3, t4, sched_next
        addu  s1, t1, zero
        b     sched_pick
sched_next:
        addiu t1, t1, P_SIZE
        addiu t2, t2, -1
        bnez  t2, sched_scan
        # nothing runnable: the idle proc
        la    s1, procs
sched_pick:
        bne   s0, s1, sched_switch
        # staying put: if we are RUNNING nothing to do
        la    a0, runq_lock
        jal   lock_release
        b     sched_out
sched_switch:
        # demote old RUNNING to READY (blocked/free states stay)
        lw    t0, P_STATE(s0)
        addiu t1, zero, S_RUNNING
        bne   t0, t1, sched_nodemote
        addiu t1, zero, S_READY
        sw    t1, P_STATE(s0)
sched_nodemote:
        addiu t1, zero, S_RUNNING
        sw    t1, P_STATE(s1)
        la    t0, curproc
        sw    s1, 0(t0)
        # annotations + address space switch
        lw    t0, P_PID(s1)
        la    t1, IO_CURPID
        sw    t0, 0(t1)
        lw    t0, P_ASID(s1)
        mtc0  t0, $entryhi
        lw    t0, P_CTX(s1)
        mtc0  t0, $context
        la    a0, runq_lock
        jal   lock_release
        # switch stacks
        addiu a0, s0, P_KSP
        addiu a1, s1, P_KSP
        jal   swtch
sched_out:
        lw    s1, 4(sp)
        lw    s0, 8(sp)
        lw    ra, 12(sp)
        addiu sp, sp, 16
        ret

# swtch: a0 = &old_ksp, a1 = &new_ksp
swtch:
        addiu sp, sp, -48
        sw    ra, 44(sp)
        sw    fp, 40(sp)
        sw    s7, 36(sp)
        sw    s6, 32(sp)
        sw    s5, 28(sp)
        sw    s4, 24(sp)
        sw    s3, 20(sp)
        sw    s2, 16(sp)
        sw    s1, 12(sp)
        sw    s0, 8(sp)
        sw    sp, 0(a0)
        lw    sp, 0(a1)
        lw    s0, 8(sp)
        lw    s1, 12(sp)
        lw    s2, 16(sp)
        lw    s3, 20(sp)
        lw    s4, 24(sp)
        lw    s5, 28(sp)
        lw    s6, 32(sp)
        lw    s7, 36(sp)
        lw    fp, 40(sp)
        lw    ra, 44(sp)
        addiu sp, sp, 48
        ret

# ===========================================================================
# Process creation: exec_user(pid) builds the user process from boot info.
# ===========================================================================

exec_user:
        addiu sp, sp, -24
        sw    ra, 20(sp)
        sw    s0, 16(sp)
        sw    s1, 12(sp)
        sw    s2, 8(sp)
        # s0 = proc pointer
        la    t0, procs
        addiu t1, zero, P_SIZE
        mul   t1, t1, a0
        addu  s0, t0, t1
        sw    a0, P_PID(s0)
        sw    a0, P_ASID(s0)
        # kernel stack: one 4 KB kernel-heap frame
        jal   alloc_kframe
        lui   t0, 0x8000
        addu  t0, v0, t0
        addiu t0, t0, 4096
        sw    t0, P_KSTACKTOP(s0)
        # address space
        lw    t1, P_PID(s0)
        sll   t1, t1, 21            # pid * 2MB
        lui   t2, 0xc000
        addu  t1, t1, t2
        sw    t1, P_CTX(s0)
        # heap
        la    t0, ubrk
        lw    t0, 0(t0)
        sw    t0, P_BRK(s0)
        sw    t0, P_HEAPBASE(s0)
        # clear the fd table
        addiu t0, s0, P_FDTAB
        addiu t1, zero, NFD
eu_fdclr:
        sw    zero, FD_USED(t0)
        addiu t0, t0, FD_ENT
        addiu t1, t1, -1
        bnez  t1, eu_fdclr
        # map the user image: pt[va>>12] = phys | V|D, one page at a time.
        # The stores land in kseg2 and fault PT pages in through tlb_miss.
        la    t0, uimgva
        lw    s1, 0(t0)             # va cursor
        la    t0, uimgphys
        lw    s2, 0(t0)             # phys cursor
        la    t0, uimgpages
        lw    t9, 0(t0)
eu_map:
        beqz  t9, eu_mapped
        lw    t0, P_CTX(s0)
        srl   t1, s1, 12
        sll   t1, t1, 2
        addu  t0, t0, t1
        addiu t1, zero, 6           # V|D
        addu  t1, s2, t1
        sw    t1, 0(t0)             # kseg2 store (tlb_miss services this)
        addiu s1, s1, 4096
        addiu s2, s2, 4096
        addiu t9, t9, -1
        b     eu_map
eu_mapped:
        # build the initial switch frame: swtch() will "return" into
        # user_thunk on this stack.
        lw    t0, P_KSTACKTOP(s0)
        addiu t0, t0, -48
        la    t1, user_thunk
        sw    t1, 44(t0)            # ra slot of the swtch frame
        sw    t0, P_KSP(s0)
        addiu t1, zero, S_READY
        sw    t1, P_STATE(s0)
        la    t0, want_resched
        addiu t1, zero, 1
        sw    t1, 0(t0)
        lw    s2, 8(sp)
        lw    s1, 12(sp)
        lw    s0, 16(sp)
        lw    ra, 20(sp)
        addiu sp, sp, 24
        ret

# user_thunk: first activation of a user process. Build a trapframe that
# "returns" to the program entry in user mode.
user_thunk:
        la    t0, curproc
        lw    t0, 0(t0)
        lw    t1, P_KSTACKTOP(t0)
        addiu s7, t1, -TF_SIZE
        # zero the frame
        addu  a0, s7, zero
        li    a1, TF_SIZE
        jal   bzero
        la    t0, uentry
        lw    t0, 0(t0)
        sw    t0, TF_EPC(s7)
        li    t0, ST_USER
        sw    t0, TF_STATUS(s7)
        li    t0, USTACKTOP + 0xff0
        sw    t0, 116(s7)           # user sp
        j     trap_return

# ===========================================================================
# Spinlocks. The machine marks [sync_begin, sync_end) as the kernel-sync
# PC range: every cycle here is attributed to the paper's "kernel sync"
# mode.
# ===========================================================================

sync_begin:
lock_acquire:
        # spl-style acquire: record the interrupt level, take the lock with
        # LL/SC, and stamp the owner, as IRIX mutex_spinlock does.
        mfc0  t2, $status
        andi  t2, t2, 0xff01        # current spl mask
la_spin:
        ll    t0, 0(a0)
        bnez  t0, la_spin           # spin (uncontended on this uniprocessor)
        addiu t0, zero, 1
        sc    t0, 0(a0)
        beqz  t0, la_spin           # lost the link: retry
        sw    t2, 4(a0)             # saved spl
        la    t1, curproc
        lw    t1, 0(t1)
        sw    t1, 8(a0)             # owner
        ret
lock_release:
        sw    zero, 8(a0)
        lw    t0, 4(a0)             # restore the recorded spl (kept in the
        xor   t0, t0, t0            # lock word; masked to zero here since
        sw    zero, 0(a0)           # handlers run with interrupts off)
        ret
sync_end:
        nop

# ===========================================================================
# Frame allocators
# ===========================================================================

# alloc_kframe: v0 = phys addr of a 4 KB kernel-heap frame (PT pages,
# kernel stacks). Never freed.
alloc_kframe:
        la    t0, kheapbump
        lw    v0, 0(t0)
        addiu t1, v0, 4096
        sw    t1, 0(t0)
        ret

# alloc_uframe: v0 = phys addr of a user page frame; v1 = 1 when the frame
# is pristine (never written since the boot-time memory clear, hence known
# zero), 0 when it was recycled through the free list and must be zeroed.
alloc_uframe:
        la    t0, framelist
        lw    v0, 0(t0)
        beqz  v0, uf_bump
        # pop from the free list (next pointer stored in the frame, kseg0)
        lui   t1, 0x8000
        addu  t2, v0, t1
        lw    t2, 0(t2)
        sw    t2, 0(t0)
        addiu v1, zero, 0
        ret
uf_bump:
        la    t0, framebump
        lw    v0, 0(t0)
        addiu t1, v0, 4096
        sw    t1, 0(t0)
        addiu v1, zero, 1
        ret

# ===========================================================================
# bzero(a0 = kaddr, a1 = len) and bcopy(a0 = src, a1 = dst, a2 = len)
# ===========================================================================

bzero:
        addu  t0, a0, zero
        addu  t1, a0, a1
bz_words:
        subu  t2, t1, t0
        sltiu t2, t2, 16
        bnez  t2, bz_tail
        sw    zero, 0(t0)
        sw    zero, 4(t0)
        sw    zero, 8(t0)
        sw    zero, 12(t0)
        addiu t0, t0, 16
        b     bz_words
bz_tail:
        sltu  t2, t0, t1
        beqz  t2, bz_done
        sb    zero, 0(t0)
        addiu t0, t0, 1
        b     bz_tail
bz_done:
        ret

bcopy:
        addu  t0, a0, zero          # src
        addu  t1, a1, zero          # dst
        addu  t2, a2, zero          # len
        # word loop when both pointers are 4-aligned
        or    t3, t0, t1
        andi  t3, t3, 3
        bnez  t3, bc_bytes
bc_words:
        sltiu t3, t2, 4
        bnez  t3, bc_bytes
        lw    t4, 0(t0)
        sw    t4, 0(t1)
        addiu t0, t0, 4
        addiu t1, t1, 4
        addiu t2, t2, -4
        b     bc_words
bc_bytes:
        blez  t2, bc_done
        lbu   t4, 0(t0)
        sb    t4, 0(t1)
        addiu t0, t0, 1
        addiu t1, t1, 1
        addiu t2, t2, -1
        b     bc_bytes
bc_done:
        ret

# ===========================================================================
# panic: a0 = message. Print and halt.
# ===========================================================================

panic:
        la    t0, IO_PUTCHAR
pan_loop:
        lbu   t1, 0(a0)
        beqz  t1, pan_halt
        sw    t1, 0(t0)
        addiu a0, a0, 1
        b     pan_loop
pan_halt:
        la    t0, IO_HALT
        li    t1, 0xdead
        sw    t1, 0(t0)
pan_spin:
        j     pan_spin

str_badboot:
        .asciiz "pkos: bad boot info\n"
str_unexp:
        .asciiz "pkos: unexpected exception\n"
str_segv:
        .asciiz "pkos: segmentation fault\n"

# ===========================================================================
# Kernel data
# ===========================================================================

        .align 4
curproc:      .word 0
want_resched: .word 0
ticks:        .word 0
disk_waiter:  .word 0
framelist:    .word 0
framebump:    .word 0
kheapbump:    .word 0
runq_lock:    .word 0, 0, 0
fc_lock:      .word 0, 0, 0
zp_lock:      .word 0, 0, 0
zp_count:     .word 0
zp_filling:   .word 0
uentry:       .word 0
uimgva:       .word 0
uimgpages:    .word 0
uimgphys:     .word 0
ubrk:         .word 0
bootflags:    .word 0

        .align 8
zp_list:      .space 1024           # ZP_MAX frame pointers

        .align 8
procs:        .space 640            # NPROC * P_SIZE

        .align 8
fctags:       .space 512            # FC_WAYS * 8

# pinned kseg2 page directory: 4096 entries covering 16 MB of kseg2
        .align 4096
kpt:          .space 16384

        .align 4096
fcdata:       .space 262144         # FC_WAYS * 4096

        .align 8
bootstack:    .space 4096
bootstack_top:
        .word 0
`
