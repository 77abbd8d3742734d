package workloads

import (
	"fmt"
	"time"
)

// FMRI returns the fMRI AIRSN pipeline of §5.1 for the given number of
// volumes: a four-step per-volume pipeline (the paper ran 120 to 480
// volumes, 480 to ~1960 tasks, each task "a few seconds" on
// TG_ANL_IA64). Stage durations follow the AIRSN steps: reorient,
// realign (motion correction), reslice, and smooth.
func FMRI(volumes int) Workload {
	if volumes <= 0 {
		panic(fmt.Sprintf("workloads: volumes = %d", volumes))
	}
	return Workload{
		Name: fmt.Sprintf("fmri-%dvol", volumes),
		Stages: []Stage{
			{volumes, 2 * time.Second}, // reorient
			{volumes, 4 * time.Second}, // realign
			{volumes, 3 * time.Second}, // reslice
			{volumes, 3 * time.Second}, // smooth
		},
	}
}

// FMRISizes are the paper's four problem sizes (volumes).
var FMRISizes = []int{120, 240, 360, 480}

// Montage returns the §5.2 Montage workload: a 3°x3° mosaic around M16
// with ~487 input images and ~2,200 overlapping sections. Stages follow
// the paper's decomposition — reprojection per image, background
// rectification (difference + fit per overlap pair), background
// correction per image, and the co-add split into a parallel step plus a
// final sequential aggregate. Durations are chosen so the Falkon run lands
// near the paper's ~1,067 s (excluding the final co-add), preserving the
// stage-time shape of Figure 15.
func Montage() Workload {
	return Workload{
		Name: "montage-m16-3x3",
		Stages: []Stage{
			{487, 44 * time.Second}, // mProject: reproject each input image
			{2200, 4 * time.Second}, // mDiff+mFit: per overlapping pair
			{487, 2 * time.Second},  // mBackground: background correction
			{121, 16 * time.Second}, // mAdd(sub): parallel co-add tiles
			{1, 180 * time.Second},  // mAdd: final co-add (sequential)
		},
	}
}

// MontageStageNames labels Montage stages for Figure 15 output.
var MontageStageNames = []string{"mProject", "mDiff+mFit", "mBackground", "mAdd(sub)", "mAdd"}

// CatalogEntry is one row of Table 5: Swift applications that could
// benefit from Falkon.
type CatalogEntry struct {
	Application string
	TasksPer    string // typical #tasks per workflow (as printed)
	Stages      string
}

// Catalog returns Table 5.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{"ATLAS: High Energy Physics Event Simulation", "500K", "1"},
		{"fMRI DBIC: AIRSN Image Processing", "100s", "12"},
		{"FOAM: Ocean/Atmosphere Model", "2000", "3"},
		{"GADU: Genomics", "40K", "4"},
		{"HNL: fMRI Aphasia Study", "500", "4"},
		{"NVO/NASA: Photorealistic Montage/Morphology", "1000s", "16"},
		{"QuarkNet/I2U2: Physics Science Education", "10s", "3~6"},
		{"RadCAD: Radiology Classifier Training", "1000s", "5"},
		{"SIDGrid: EEG Wavelet Processing, Gaze Analysis", "100s", "20"},
		{"SDSS: Coadd, Cluster Search", "40K, 500K", "2, 8"},
		{"SDSS: Stacking, AstroPortal", "10Ks ~ 100Ks", "2 ~ 4"},
		{"MolDyn: Molecular Dynamics", "1Ks ~ 20Ks", "8"},
	}
}
