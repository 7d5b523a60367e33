//! The model catalog (Table I) and the collocation pairs used in §V.

use std::fmt;

/// The DNN models used as ML services in the paper (Table I), plus the
/// LLaMA-2-13B LLM case study of §V-F.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelId {
    /// BERT-large question answering (NLP).
    Bert,
    /// Transformer translation model (NLP).
    Transformer,
    /// DLRM recommendation model.
    Dlrm,
    /// Neural collaborative filtering recommendation model.
    Ncf,
    /// Mask-RCNN object detection & segmentation.
    MaskRcnn,
    /// RetinaNet object detection.
    RetinaNet,
    /// ShapeMask instance segmentation.
    ShapeMask,
    /// MNIST toy classifier.
    Mnist,
    /// ResNet-50 image classification.
    ResNet,
    /// ResNet-RS image classification.
    ResNetRs,
    /// EfficientNet image classification.
    EfficientNet,
    /// LLaMA-2-13B autoregressive LLM (memory-bandwidth-intensive case study).
    Llama,
}

impl ModelId {
    /// Every model in the catalog, in Table I order, with LLaMA appended.
    pub fn all() -> [ModelId; 12] {
        [
            ModelId::Bert,
            ModelId::Transformer,
            ModelId::Dlrm,
            ModelId::Ncf,
            ModelId::MaskRcnn,
            ModelId::RetinaNet,
            ModelId::ShapeMask,
            ModelId::Mnist,
            ModelId::ResNet,
            ModelId::ResNetRs,
            ModelId::EfficientNet,
            ModelId::Llama,
        ]
    }

    /// The models of Table I (without the LLaMA case study).
    pub fn table_i() -> [ModelId; 11] {
        [
            ModelId::Bert,
            ModelId::Transformer,
            ModelId::Dlrm,
            ModelId::Ncf,
            ModelId::MaskRcnn,
            ModelId::RetinaNet,
            ModelId::ShapeMask,
            ModelId::Mnist,
            ModelId::ResNet,
            ModelId::ResNetRs,
            ModelId::EfficientNet,
        ]
    }

    /// Full model name.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Bert => "BERT",
            ModelId::Transformer => "Transformer",
            ModelId::Dlrm => "DLRM",
            ModelId::Ncf => "NCF",
            ModelId::MaskRcnn => "Mask-RCNN",
            ModelId::RetinaNet => "RetinaNet",
            ModelId::ShapeMask => "ShapeMask",
            ModelId::Mnist => "MNIST",
            ModelId::ResNet => "ResNet",
            ModelId::ResNetRs => "ResNet-RS",
            ModelId::EfficientNet => "EfficientNet",
            ModelId::Llama => "LLaMA-2-13B",
        }
    }

    /// The abbreviation used in the paper's figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            ModelId::Bert => "BERT",
            ModelId::Transformer => "TFMR",
            ModelId::Dlrm => "DLRM",
            ModelId::Ncf => "NCF",
            ModelId::MaskRcnn => "MRCN",
            ModelId::RetinaNet => "RtNt",
            ModelId::ShapeMask => "SMask",
            ModelId::Mnist => "MNIST",
            ModelId::ResNet => "RsNt",
            ModelId::ResNetRs => "RNRS",
            ModelId::EfficientNet => "ENet",
            ModelId::Llama => "LLaMA",
        }
    }

    /// The workload category of Table I.
    pub fn category(self) -> ModelCategory {
        match self {
            ModelId::Bert | ModelId::Transformer => ModelCategory::NaturalLanguageProcessing,
            ModelId::Dlrm | ModelId::Ncf => ModelCategory::Recommendation,
            ModelId::MaskRcnn | ModelId::RetinaNet | ModelId::ShapeMask => {
                ModelCategory::ObjectDetection
            }
            ModelId::Mnist | ModelId::ResNet | ModelId::ResNetRs | ModelId::EfficientNet => {
                ModelCategory::ImageClassification
            }
            ModelId::Llama => ModelCategory::LargeLanguageModel,
        }
    }

    /// The batch size the paper uses for this model in the multi-tenant
    /// experiments (§V-A): 32 for most models, 8 for Mask-RCNN, ShapeMask and
    /// the LLaMA case study.
    pub fn evaluation_batch_size(self) -> u64 {
        match self {
            ModelId::MaskRcnn | ModelId::ShapeMask | ModelId::Llama => 8,
            _ => 32,
        }
    }

    /// The fraction of the model's per-request HBM traffic that *writes*
    /// tenant-resident state (and therefore dirties pages a live pre-copy
    /// migration must re-stream). Weights are read-mostly for every model;
    /// what varies is the mutable state: an LLM appends to its KV cache on
    /// every token, NLP encoders materialize large activations, embedding
    /// lookups write small per-request scratch, and feed-forward vision
    /// models barely touch HBM beyond streaming weights in.
    pub fn hbm_write_fraction(self) -> f64 {
        match self.category() {
            ModelCategory::LargeLanguageModel => 0.35,
            ModelCategory::NaturalLanguageProcessing => 0.15,
            ModelCategory::Recommendation => 0.08,
            ModelCategory::ObjectDetection => 0.04,
            ModelCategory::ImageClassification => 0.02,
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The Table I workload categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelCategory {
    /// Natural language processing (BERT, Transformer).
    NaturalLanguageProcessing,
    /// Recommendation (DLRM, NCF).
    Recommendation,
    /// Object detection & segmentation (Mask-RCNN, RetinaNet, ShapeMask).
    ObjectDetection,
    /// Image classification (MNIST, ResNet, ResNet-RS, EfficientNet).
    ImageClassification,
    /// Large language models (the §V-F LLaMA case study).
    LargeLanguageModel,
}

impl fmt::Display for ModelCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ModelCategory::NaturalLanguageProcessing => "Natural Language Processing",
            ModelCategory::Recommendation => "Recommendation",
            ModelCategory::ObjectDetection => "Object Detection & Segmentation",
            ModelCategory::ImageClassification => "Image Classification",
            ModelCategory::LargeLanguageModel => "Large Language Model",
        };
        f.write_str(name)
    }
}

/// Catalog entry describing one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The model.
    pub id: ModelId,
    /// Full name.
    pub name: &'static str,
    /// Figure abbreviation.
    pub abbrev: &'static str,
    /// Workload category.
    pub category: ModelCategory,
    /// Batch size used in the paper's multi-tenant evaluation.
    pub evaluation_batch_size: u64,
}

/// The full model catalog in Table I order (LLaMA appended last).
pub fn model_catalog() -> Vec<ModelInfo> {
    ModelId::all()
        .into_iter()
        .map(|id| ModelInfo {
            id,
            name: id.name(),
            abbrev: id.abbrev(),
            category: id.category(),
            evaluation_batch_size: id.evaluation_batch_size(),
        })
        .collect()
}

/// ME/VE contention level of a collocation pair (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ContentionLevel {
    /// The two workloads stress mostly different engine types.
    Low,
    /// Moderate overlap in engine demand.
    Medium,
    /// Both workloads compete for the same engine type.
    High,
    /// Both workloads are memory-bandwidth intensive (§V-F pairs).
    MemoryBound,
    /// An LLM collocated with a compute-intensive model (§V-F case study).
    LlmCaseStudy,
}

impl fmt::Display for ContentionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ContentionLevel::Low => "low",
            ContentionLevel::Medium => "medium",
            ContentionLevel::High => "high",
            ContentionLevel::MemoryBound => "memory-bound",
            ContentionLevel::LlmCaseStudy => "llm-case-study",
        };
        f.write_str(name)
    }
}

/// A collocated workload pair used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadPair {
    /// First workload (W1 in the figures).
    pub first: ModelId,
    /// Second workload (W2 in the figures).
    pub second: ModelId,
    /// ME/VE contention level of the pair.
    pub contention: ContentionLevel,
}

impl WorkloadPair {
    /// The figure label of the pair, e.g. `DLRM+SMask`.
    pub fn label(&self) -> String {
        format!("{}+{}", self.first.abbrev(), self.second.abbrev())
    }
}

impl fmt::Display for WorkloadPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The nine collocation pairs of §V-A, in figure order: three with low, three
/// with medium and three with high ME/VE contention.
pub fn collocation_pairs() -> Vec<WorkloadPair> {
    use ContentionLevel::*;
    use ModelId::*;
    vec![
        WorkloadPair {
            first: Dlrm,
            second: ShapeMask,
            contention: Low,
        },
        WorkloadPair {
            first: Dlrm,
            second: RetinaNet,
            contention: Low,
        },
        WorkloadPair {
            first: Ncf,
            second: ResNet,
            contention: Low,
        },
        WorkloadPair {
            first: EfficientNet,
            second: ShapeMask,
            contention: Medium,
        },
        WorkloadPair {
            first: Bert,
            second: EfficientNet,
            contention: Medium,
        },
        WorkloadPair {
            first: EfficientNet,
            second: MaskRcnn,
            contention: Medium,
        },
        WorkloadPair {
            first: EfficientNet,
            second: Transformer,
            contention: High,
        },
        WorkloadPair {
            first: Mnist,
            second: RetinaNet,
            contention: High,
        },
        WorkloadPair {
            first: ResNetRs,
            second: RetinaNet,
            contention: High,
        },
    ]
}

/// The two memory-bandwidth-intensive pairs added in §V-F (Fig. 26).
pub fn memory_intensive_pairs() -> Vec<WorkloadPair> {
    use ModelId::*;
    vec![
        WorkloadPair {
            first: Dlrm,
            second: Ncf,
            contention: ContentionLevel::MemoryBound,
        },
        WorkloadPair {
            first: Ncf,
            second: Transformer,
            contention: ContentionLevel::MemoryBound,
        },
    ]
}

/// The LLM collocation pairs of the §V-F case study (Fig. 27).
pub fn llm_pairs() -> Vec<WorkloadPair> {
    use ModelId::*;
    vec![
        WorkloadPair {
            first: Llama,
            second: Bert,
            contention: ContentionLevel::LlmCaseStudy,
        },
        WorkloadPair {
            first: Llama,
            second: ResNet,
            contention: ContentionLevel::LlmCaseStudy,
        },
        WorkloadPair {
            first: Llama,
            second: RetinaNet,
            contention: ContentionLevel::LlmCaseStudy,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_table_i_plus_llama() {
        let catalog = model_catalog();
        assert_eq!(catalog.len(), 12);
        assert_eq!(ModelId::table_i().len(), 11);
        assert!(catalog.iter().any(|m| m.abbrev == "RNRS"));
        assert!(catalog.iter().any(|m| m.abbrev == "LLaMA"));
    }

    /// The fleet layer indexes dense tables by `ModelId as usize` (dispatch
    /// load trees, shard-plan residue tables, per-model accumulators) and
    /// reads them back in slot order as `ModelId` order. Both hold only while
    /// `all()` lists every model in declaration order.
    #[test]
    fn all_is_the_dense_model_index() {
        let all = ModelId::all();
        assert!(all.windows(2).all(|pair| pair[0] < pair[1]));
        for (index, model) in all.into_iter().enumerate() {
            assert_eq!(model as usize, index, "{model}");
        }
    }

    #[test]
    fn nine_collocation_pairs_in_three_contention_bands() {
        let pairs = collocation_pairs();
        assert_eq!(pairs.len(), 9);
        for level in [
            ContentionLevel::Low,
            ContentionLevel::Medium,
            ContentionLevel::High,
        ] {
            assert_eq!(pairs.iter().filter(|p| p.contention == level).count(), 3);
        }
        assert_eq!(pairs[0].label(), "DLRM+SMask");
        assert_eq!(pairs[8].label(), "RNRS+RtNt");
    }

    #[test]
    fn evaluation_batch_sizes_match_section_v_a() {
        assert_eq!(ModelId::Bert.evaluation_batch_size(), 32);
        assert_eq!(ModelId::MaskRcnn.evaluation_batch_size(), 8);
        assert_eq!(ModelId::ShapeMask.evaluation_batch_size(), 8);
    }

    #[test]
    fn write_fractions_order_kv_heavy_above_read_mostly() {
        // The dirty-rate model rests on this ordering: KV-appending LLMs
        // dirty far more resident state per request than feed-forward vision.
        assert!(ModelId::Llama.hbm_write_fraction() > ModelId::Bert.hbm_write_fraction());
        assert!(ModelId::Bert.hbm_write_fraction() > ModelId::ResNet.hbm_write_fraction());
        for model in ModelId::all() {
            let fraction = model.hbm_write_fraction();
            assert!((0.0..=1.0).contains(&fraction), "{model:?}: {fraction}");
        }
    }

    #[test]
    fn categories_match_table_i() {
        assert_eq!(ModelId::Dlrm.category(), ModelCategory::Recommendation);
        assert_eq!(
            ModelId::RetinaNet.category(),
            ModelCategory::ObjectDetection
        );
        assert_eq!(
            ModelId::EfficientNet.category(),
            ModelCategory::ImageClassification
        );
        assert_eq!(ModelId::Llama.category(), ModelCategory::LargeLanguageModel);
    }

    #[test]
    fn auxiliary_pairs_exist() {
        assert_eq!(memory_intensive_pairs().len(), 2);
        assert_eq!(llm_pairs().len(), 3);
        assert!(llm_pairs().iter().all(|p| p.first == ModelId::Llama));
    }

    #[test]
    fn display_uses_abbreviations() {
        assert_eq!(ModelId::RetinaNet.to_string(), "RtNt");
        assert_eq!(collocation_pairs()[1].to_string(), "DLRM+RtNt");
    }
}
