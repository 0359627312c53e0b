package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"ricjs/internal/profiler"
)

func tw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// ReportTable1 prints the Table 1 characterization: hidden classes, IC
// misses, misses per hidden class, and context-independent handler share
// in the Initial run, next to the paper's numbers.
func ReportTable1(w io.Writer, runs []LibraryRun) {
	fmt.Fprintln(w, "Table 1: IC statistics during library initialization (Initial run)")
	fmt.Fprintln(w, "measured | paper")
	t := tw(w)
	fmt.Fprintln(t, "Library\tHCs\tICMisses\tMiss/HC\tCI-Handler%\t|\tHCs\tICMisses\tMiss/HC\tCI%")
	var mHC, mMiss, mRatio, mCI float64
	for _, r := range runs {
		ref := paperTable1(r.Name)
		s := r.Initial
		fmt.Fprintf(t, "%s\t%d\t%d\t%.1f\t%.1f\t|\t%d\t%d\t%.1f\t%.1f\n",
			r.Name, s.HCCreated, s.ICMisses, s.MissesPerHC(), s.ContextIndependentShare(),
			ref.HiddenClasses, ref.ICMisses, ref.MissesPerHC, ref.CIHandlerPct)
		mHC += float64(s.HCCreated)
		mMiss += float64(s.ICMisses)
		mRatio += s.MissesPerHC()
		mCI += s.ContextIndependentShare()
	}
	n := float64(len(runs))
	fmt.Fprintf(t, "Average\t%.0f\t%.0f\t%.1f\t%.1f\t|\t171\t892\t4.8\t59.6\n",
		mHC/n, mMiss/n, mRatio/n, mCI/n)
	t.Flush()
}

func paperTable1(name string) PaperTable1 {
	for _, p := range Table1Paper {
		if p.Library == name {
			return p
		}
	}
	return PaperTable1{Library: name}
}

func paperTable4(name string) PaperTable4 {
	for _, p := range Table4Paper {
		if p.Library == name {
			return p
		}
	}
	return PaperTable4{Library: name}
}

// ReportFigure5 prints the instruction breakdown of the Initial run: the
// share spent handling IC misses versus the rest of the work.
func ReportFigure5(w io.Writer, runs []LibraryRun) {
	fmt.Fprintln(w, "Figure 5: instruction breakdown during initialization (Initial run)")
	t := tw(w)
	fmt.Fprintln(t, "Library\tICMissShare\tRestShare\tbar")
	var sum float64
	for _, r := range runs {
		share := r.Initial.ICMissShare()
		sum += share
		fmt.Fprintf(t, "%s\t%.1f%%\t%.1f%%\t%s\n", r.Name, 100*share, 100*(1-share), bar(share, 30))
	}
	fmt.Fprintf(t, "Average\t%.1f%%\t%.1f%%\t(paper avg: %.0f%%)\n",
		100*sum/float64(len(runs)), 100*(1-sum/float64(len(runs))), 100*Figure5PaperAvgMissShare)
	t.Flush()
}

// ReportTable4 prints the IC miss rates of the Initial and RIC Reuse runs
// with the Reuse-run miss breakdown (Handler / Global / Other).
func ReportTable4(w io.Writer, runs []LibraryRun) {
	fmt.Fprintln(w, "Table 4: IC miss rate in the Initial and Reuse runs")
	fmt.Fprintln(w, "measured | paper")
	t := tw(w)
	fmt.Fprintln(t, "Library\tInit%\tReuse%\tHandler\tGlobal\tOther\t|\tInit%\tReuse%\tHandler\tGlobal\tOther")
	var mi, mr, mh, mg, mo float64
	for _, r := range runs {
		ref := paperTable4(r.Name)
		init := r.Initial.MissRate()
		reuse := r.RIC.MissRate()
		h := r.RIC.MissRateOf(profiler.MissHandler)
		g := r.RIC.MissRateOf(profiler.MissGlobal)
		o := r.RIC.MissRateOf(profiler.MissOther)
		fmt.Fprintf(t, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t|\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Name, init, reuse, h, g, o,
			ref.InitialRate, ref.ReuseRate, ref.Handler, ref.Global, ref.Other)
		mi += init
		mr += reuse
		mh += h
		mg += g
		mo += o
	}
	n := float64(len(runs))
	fmt.Fprintf(t, "Average\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t|\t49.19\t24.08\t3.52\t1.77\t18.79\n",
		mi/n, mr/n, mh/n, mg/n, mo/n)
	t.Flush()
}

// ReportFigure8 prints the normalized dynamic instruction count of the
// RIC Reuse run against the Conventional Reuse run.
func ReportFigure8(w io.Writer, runs []LibraryRun) {
	fmt.Fprintln(w, "Figure 8: dynamic instruction count of Reuse runs, normalized to Conventional")
	t := tw(w)
	fmt.Fprintln(t, "Library\tConv\tRIC\tRIC/Conv\tbar")
	var sum float64
	for _, r := range runs {
		ratio := 1 - r.InstrReduction()
		sum += ratio
		fmt.Fprintf(t, "%s\t%d\t%d\t%.1f%%\t%s\n",
			r.Name, r.Conv.TotalInstr(), r.RIC.TotalInstr(), 100*ratio, bar(ratio, 30))
	}
	fmt.Fprintf(t, "Average\t\t\t%.1f%%\t(paper avg: %.0f%%)\n",
		100*sum/float64(len(runs)), 100*(1-Figure8PaperAvgReduction))
	t.Flush()
}

// ReportFigure9 prints the execution time of the Reuse runs, normalized
// to Conventional, with the absolute Conventional time annotated as in
// the paper's figure.
func ReportFigure9(w io.Writer, runs []LibraryRun) {
	fmt.Fprintln(w, "Figure 9: execution time of Reuse runs, normalized to Conventional")
	t := tw(w)
	fmt.Fprintln(t, "Library\tConv(ms)\tRIC(ms)\tRIC/Conv\tpaperConv(ms)\tbar")
	var sum float64
	for _, r := range runs {
		ratio := 1 - r.TimeReduction()
		sum += ratio
		fmt.Fprintf(t, "%s\t%.3f\t%.3f\t%.1f%%\t%.0f\t%s\n",
			r.Name, ms(r.ConvTime), ms(r.RICTime), 100*ratio,
			Figure9PaperTimesMs[r.Name], bar(ratio, 30))
	}
	fmt.Fprintf(t, "Average\t\t\t%.1f%%\t\t(paper avg: %.0f%%)\n",
		100*sum/float64(len(runs)), 100*(1-Figure9PaperAvgReduction))
	t.Flush()
}

// ReportOverheads prints §7.3's overhead analysis: extraction time (the
// IC walk), the offline static analysis, record size, and record size
// relative to an estimated heap footprint.
func ReportOverheads(w io.Writer, runs []LibraryRun) {
	fmt.Fprintln(w, "Section 7.3: RIC overheads (extraction time, ICRecord size)")
	t := tw(w)
	fmt.Fprintln(t, "Library\tExtract(ms)\tAnalysis(ms)\tRecord(KB)\tDependents\tTriggering\tRejected\tRecord/Heap")
	var et, at, kb, ratioSum float64
	for _, r := range runs {
		// Heap footprint estimate: allocation count times a nominal
		// 128-byte object (the engine does not model byte-accurate heap
		// sizes). Only the ratio's order of magnitude is meaningful.
		heapBytes := float64(r.Initial.Allocations) * 128
		ratio := 0.0
		if heapBytes > 0 {
			ratio = float64(r.RecordBytes) / heapBytes
		}
		et += ms(r.ExtractTime)
		at += ms(r.AnalyzeTime)
		kb += float64(r.RecordBytes) / 1024
		ratioSum += ratio
		fmt.Fprintf(t, "%s\t%.3f\t%.3f\t%.1f\t%d\t%d\t%d\t%.1f%%\n",
			r.Name, ms(r.ExtractTime), ms(r.AnalyzeTime), float64(r.RecordBytes)/1024,
			r.RecordStats.DependentSlots, r.RecordStats.TriggeringSites,
			r.RecordStats.RejectedSites, 100*ratio)
	}
	n := float64(len(runs))
	fmt.Fprintf(t, "Average\t%.3f\t%.3f\t%.1f\t\t\t\t%.1f%%\n", et/n, at/n, kb/n, 100*ratioSum/n)
	t.Flush()
	fmt.Fprintf(w, "paper: extraction 6-30 ms (avg 13), record 11-118 KB (avg 39), ~1%% of a 2.6-5.6 MB heap\n")
}

// ReportWebsites prints the cross-website robustness result (§6).
func ReportWebsites(w io.Writer, run WebsiteRun) {
	fmt.Fprintln(w, "Cross-website reuse: record from website 1, reuse on website 2 (different load order)")
	t := tw(w)
	fmt.Fprintln(t, "Run\tICMissRate\tICMisses\tMissesSaved\tInstr")
	fmt.Fprintf(t, "Conventional\t%.2f%%\t%d\t%d\t%d\n",
		run.Conv.MissRate(), run.Conv.ICMisses, run.Conv.MissesSaved, run.Conv.TotalInstr())
	fmt.Fprintf(t, "RIC\t%.2f%%\t%d\t%d\t%d\n",
		run.RIC.MissRate(), run.RIC.ICMisses, run.RIC.MissesSaved, run.RIC.TotalInstr())
	t.Flush()
}

// ReportFigure1 prints the motivation data of Figure 1.
func ReportFigure1(w io.Writer) {
	fmt.Fprintln(w, "Figure 1: user page-load expectations vs website JavaScript complexity")
	t := tw(w)
	fmt.Fprintln(t, "Year\tExpectedLoad(s)\tJSRequests")
	for _, p := range Figure1Paper {
		if p.JSRequests > 0 {
			fmt.Fprintf(t, "%d\t%.1f\t%.0f\n", p.Year, p.ExpectedLoadSecs, p.JSRequests)
		} else {
			fmt.Fprintf(t, "%d\t%.1f\t-\n", p.Year, p.ExpectedLoadSecs)
		}
	}
	t.Flush()
}

func ms(d interface{ Seconds() float64 }) float64 { return d.Seconds() * 1000 }

// bar renders a crude horizontal bar for ratio in [0,1].
func bar(ratio float64, width int) string {
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	n := int(ratio*float64(width) + 0.5)
	out := make([]byte, width)
	for i := range out {
		if i < n {
			out[i] = '#'
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
