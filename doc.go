// Package repro is a from-scratch Go reproduction of "An Efficient
// Programmable 10 Gigabit Ethernet Network Interface Card" (Willmann, Kim,
// Rixner, Pai — HPCA 2005): a cycle-level simulation of the proposed NIC
// architecture (parallel scalar cores, partitioned scratchpad/SDRAM memory
// system, streaming hardware assists, four clock domains), its frame-level
// parallel firmware with both lock-based and atomic set/update frame
// ordering, and every substrate the study depends on — an ISA interpreter
// and assembler for the firmware kernels, an ILP limit analyzer, and a
// trace-driven MESI coherence simulator.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-vs-measured record, and cmd/nicbench, the one command that
// regenerates every table, figure and ablation.
package repro
