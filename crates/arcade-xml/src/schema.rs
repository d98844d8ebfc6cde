//! Mapping between XML documents and Arcade models.
//!
//! The vocabulary (element and attribute names) is documented on
//! [`to_xml`]; [`from_xml`] accepts exactly the documents [`to_xml`]
//! produces, so models round-trip losslessly.

use arcade_core::{
    ArcadeModel, BasicComponent, Disaster, QueueDiscipline, RepairStrategy, RepairUnit,
    SpareManagementUnit,
};
use fault_tree::{StructureNode, SystemStructure};

use crate::error::XmlError;
use crate::xml::{XmlDocument, XmlElement};

/// Serialises a model to the Arcade XML format.
///
/// Document layout:
///
/// ```xml
/// <arcade-model name="...">
///   <components>
///     <component name="..." mttf="..." mttr="..." failed-cost="..."
///                operational-cost="..." dormancy="..." initially-failed="..."/>
///   </components>
///   <repair-units>
///     <repair-unit name="..." strategy="dedicated|fcfs|frf|fff|priority"
///                  crews="..." idle-cost="..." busy-cost="..."
///                  discipline="arrival-order|preemptive">  <!-- omitted for the default -->
///       <responsible ref="..."/>
///       <priority ref="..."/>          <!-- only for strategy="priority" -->
///     </repair-unit>
///   </repair-units>
///   <spare-units>
///     <spare-unit name="...">
///       <primary ref="..."/>
///       <spare ref="..."/>
///     </spare-unit>
///   </spare-units>
///   <structure> ... <series>/<redundant>/<required-of required="k">/<component ref=""/> ... </structure>
///   <disasters>
///     <disaster name="..."><failed ref="..."/></disaster>
///   </disasters>
/// </arcade-model>
/// ```
pub fn to_xml(model: &ArcadeModel) -> String {
    let mut root = XmlElement::new("arcade-model").with_attribute("name", model.name());

    let mut components = XmlElement::new("components");
    for c in model.components() {
        let mut element = XmlElement::new("component")
            .with_attribute("name", c.name())
            .with_attribute("mttf", c.mttf())
            .with_attribute("mttr", c.mttr());
        if c.failed_cost_per_hour() != 0.0 {
            element = element.with_attribute("failed-cost", c.failed_cost_per_hour());
        }
        if c.operational_cost_per_hour() != 0.0 {
            element = element.with_attribute("operational-cost", c.operational_cost_per_hour());
        }
        if c.dormancy_factor() != 1.0 {
            element = element.with_attribute("dormancy", c.dormancy_factor());
        }
        if c.is_initially_failed() {
            element = element.with_attribute("initially-failed", "true");
        }
        components.children.push(element);
    }
    root.children.push(components);

    let mut repair_units = XmlElement::new("repair-units");
    for ru in model.repair_units() {
        let mut element = XmlElement::new("repair-unit")
            .with_attribute("name", ru.name())
            .with_attribute("strategy", strategy_keyword(ru.strategy()))
            .with_attribute("crews", ru.crews());
        if ru.idle_cost_per_hour() != 0.0 {
            element = element.with_attribute("idle-cost", ru.idle_cost_per_hour());
        }
        if ru.busy_cost_per_hour() != 0.0 {
            element = element.with_attribute("busy-cost", ru.busy_cost_per_hour());
        }
        if ru.discipline() != QueueDiscipline::default() {
            element = element.with_attribute("discipline", discipline_keyword(ru.discipline()));
        }
        for component in ru.components() {
            element
                .children
                .push(XmlElement::new("responsible").with_attribute("ref", component));
        }
        if let RepairStrategy::Priority(order) = ru.strategy() {
            for component in order {
                element
                    .children
                    .push(XmlElement::new("priority").with_attribute("ref", component));
            }
        }
        repair_units.children.push(element);
    }
    root.children.push(repair_units);

    if !model.spare_units().is_empty() {
        let mut spare_units = XmlElement::new("spare-units");
        for smu in model.spare_units() {
            let mut element = XmlElement::new("spare-unit").with_attribute("name", smu.name());
            for primary in smu.primaries() {
                element
                    .children
                    .push(XmlElement::new("primary").with_attribute("ref", primary));
            }
            for spare in smu.spares() {
                element
                    .children
                    .push(XmlElement::new("spare").with_attribute("ref", spare));
            }
            spare_units.children.push(element);
        }
        root.children.push(spare_units);
    }

    let mut structure = XmlElement::new("structure");
    structure
        .children
        .push(structure_to_xml(model.structure().root()));
    root.children.push(structure);

    if !model.disasters().is_empty() {
        let mut disasters = XmlElement::new("disasters");
        for disaster in model.disasters() {
            let mut element = XmlElement::new("disaster").with_attribute("name", disaster.name());
            for component in disaster.failed_components() {
                element
                    .children
                    .push(XmlElement::new("failed").with_attribute("ref", component));
            }
            disasters.children.push(element);
        }
        root.children.push(disasters);
    }

    XmlDocument::new(root).to_string_pretty()
}

/// Parses a model from the Arcade XML format.
///
/// # Errors
///
/// Returns parse errors for malformed XML, schema errors for missing or
/// malformed elements/attributes, and model errors for semantically invalid
/// models (unknown references and the like).
pub fn from_xml(text: &str) -> Result<ArcadeModel, XmlError> {
    let document = XmlDocument::parse(text)?;
    let root = &document.root;
    if root.name != "arcade-model" {
        return Err(XmlError::Schema {
            message: format!(
                "expected root element <arcade-model>, found <{}>",
                root.name
            ),
        });
    }
    let name = root.required_attribute("name")?;

    let structure_element = root.required_child("structure")?;
    let structure_root = structure_element
        .children
        .first()
        .ok_or_else(|| XmlError::Schema {
            message: "<structure> must contain exactly one node".to_string(),
        })?;
    let structure = SystemStructure::new(structure_from_xml(structure_root)?);

    let mut builder = ArcadeModel::builder(name, structure);

    for element in root
        .required_child("components")?
        .children_named("component")
    {
        let component_name = element.required_attribute("name")?;
        let mttf = parse_number(element, "mttf")?;
        let mttr = parse_number(element, "mttr")?;
        let mut component = BasicComponent::from_mttf_mttr(component_name, mttf, mttr)?;
        if let Some(value) = element.attribute("failed-cost") {
            component = component.with_failed_cost(parse_value(element, "failed-cost", value)?);
        }
        if let Some(value) = element.attribute("operational-cost") {
            component =
                component.with_operational_cost(parse_value(element, "operational-cost", value)?);
        }
        if let Some(value) = element.attribute("dormancy") {
            component = component.with_dormancy_factor(parse_value(element, "dormancy", value)?);
        }
        match element.attribute("initially-failed") {
            None | Some("false") => {}
            Some("true") => component = component.initially_failed(),
            Some(other) => {
                return Err(XmlError::Schema {
                    message: format!(
                        "component `{component_name}` has an invalid initially-failed value \
                         `{other}` (expected true or false)"
                    ),
                })
            }
        }
        builder = builder.component(component);
    }

    if let Some(units) = root.child_named("repair-units") {
        for element in units.children_named("repair-unit") {
            let unit_name = element.required_attribute("name")?;
            let crews: usize =
                element
                    .required_attribute("crews")?
                    .parse()
                    .map_err(|_| XmlError::Schema {
                        message: format!("repair unit `{unit_name}` has a non-integer crew count"),
                    })?;
            let strategy = match element.required_attribute("strategy")? {
                "dedicated" => RepairStrategy::Dedicated,
                "fcfs" => RepairStrategy::FirstComeFirstServe,
                "frf" => RepairStrategy::FastestRepairFirst,
                "fff" => RepairStrategy::FastestFailureFirst,
                "priority" => RepairStrategy::Priority(
                    element
                        .children_named("priority")
                        .map(|p| p.required_attribute("ref").map(str::to_string))
                        .collect::<Result<Vec<_>, _>>()?,
                ),
                other => {
                    return Err(XmlError::Schema {
                        message: format!("unknown repair strategy `{other}`"),
                    })
                }
            };
            let mut unit = RepairUnit::new(unit_name, strategy, crews)?;
            let responsible = element
                .children_named("responsible")
                .map(|r| r.required_attribute("ref").map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?;
            unit = unit.responsible_for(responsible);
            if let Some(value) = element.attribute("idle-cost") {
                unit = unit.with_idle_cost(parse_value(element, "idle-cost", value)?);
            }
            if let Some(value) = element.attribute("busy-cost") {
                unit = unit.with_busy_cost(parse_value(element, "busy-cost", value)?);
            }
            if element.attribute("preemptive").is_some() {
                return Err(XmlError::Schema {
                    message: format!(
                        "repair unit `{unit_name}` uses the retired attribute `preemptive`; \
                         write discipline=\"preemptive\" instead"
                    ),
                });
            }
            if let Some(value) = element.attribute("discipline") {
                let discipline = DISCIPLINES
                    .into_iter()
                    .find(|&d| discipline_keyword(d) == value)
                    .ok_or_else(|| XmlError::Schema {
                        message: format!(
                            "repair unit `{unit_name}` has an unknown discipline `{value}` \
                             (expected priority-canonical, arrival-order or preemptive)"
                        ),
                    })?;
                unit = unit.with_discipline(discipline);
            }
            builder = builder.repair_unit(unit);
        }
    }

    if let Some(units) = root.child_named("spare-units") {
        for element in units.children_named("spare-unit") {
            let unit_name = element.required_attribute("name")?;
            let primaries = element
                .children_named("primary")
                .map(|p| p.required_attribute("ref").map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?;
            let spares = element
                .children_named("spare")
                .map(|p| p.required_attribute("ref").map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?;
            builder = builder.spare_unit(SpareManagementUnit::new(unit_name, primaries, spares)?);
        }
    }

    if let Some(disasters) = root.child_named("disasters") {
        for element in disasters.children_named("disaster") {
            let disaster_name = element.required_attribute("name")?;
            let failed = element
                .children_named("failed")
                .map(|p| p.required_attribute("ref").map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?;
            builder = builder.disaster(Disaster::new(disaster_name, failed)?);
        }
    }

    Ok(builder.build()?)
}

fn strategy_keyword(strategy: &RepairStrategy) -> &'static str {
    match strategy {
        RepairStrategy::Dedicated => "dedicated",
        RepairStrategy::FirstComeFirstServe => "fcfs",
        RepairStrategy::FastestRepairFirst => "frf",
        RepairStrategy::FastestFailureFirst => "fff",
        RepairStrategy::Priority(_) => "priority",
    }
}

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::PriorityCanonical,
    QueueDiscipline::ArrivalOrder,
    QueueDiscipline::Preemptive,
];

fn discipline_keyword(discipline: QueueDiscipline) -> &'static str {
    match discipline {
        QueueDiscipline::PriorityCanonical => "priority-canonical",
        QueueDiscipline::ArrivalOrder => "arrival-order",
        QueueDiscipline::Preemptive => "preemptive",
    }
}

fn structure_to_xml(node: &StructureNode) -> XmlElement {
    match node {
        StructureNode::Component(name) => XmlElement::new("component").with_attribute("ref", name),
        StructureNode::Series(children) => {
            let mut element = XmlElement::new("series");
            element.children = children.iter().map(structure_to_xml).collect();
            element
        }
        StructureNode::Redundant(children) => {
            let mut element = XmlElement::new("redundant");
            element.children = children.iter().map(structure_to_xml).collect();
            element
        }
        StructureNode::RequiredOf { required, children } => {
            let mut element = XmlElement::new("required-of").with_attribute("required", *required);
            element.children = children.iter().map(structure_to_xml).collect();
            element
        }
    }
}

fn structure_from_xml(element: &XmlElement) -> Result<StructureNode, XmlError> {
    match element.name.as_str() {
        "component" => Ok(StructureNode::component(element.required_attribute("ref")?)),
        "series" => Ok(StructureNode::series(
            element
                .children
                .iter()
                .map(structure_from_xml)
                .collect::<Result<Vec<_>, _>>()?,
        )),
        "redundant" => Ok(StructureNode::redundant(
            element
                .children
                .iter()
                .map(structure_from_xml)
                .collect::<Result<Vec<_>, _>>()?,
        )),
        "required-of" => {
            let required: usize =
                element
                    .required_attribute("required")?
                    .parse()
                    .map_err(|_| XmlError::Schema {
                        message: "attribute `required` must be a non-negative integer".to_string(),
                    })?;
            Ok(StructureNode::required_of(
                required,
                element
                    .children
                    .iter()
                    .map(structure_from_xml)
                    .collect::<Result<Vec<_>, _>>()?,
            ))
        }
        other => Err(XmlError::Schema {
            message: format!("unknown structure element <{other}>"),
        }),
    }
}

fn parse_number(element: &XmlElement, attribute: &str) -> Result<f64, XmlError> {
    let value = element.required_attribute(attribute)?;
    parse_value(element, attribute, value)
}

fn parse_value(element: &XmlElement, attribute: &str, value: &str) -> Result<f64, XmlError> {
    value.parse().map_err(|_| XmlError::Schema {
        message: format!(
            "attribute `{attribute}` of <{}> is not a number: `{value}`",
            element.name
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::series(vec![
            StructureNode::redundant(vec![
                StructureNode::component("st1"),
                StructureNode::component("st2"),
            ]),
            StructureNode::component("res"),
            StructureNode::required_of(
                1,
                vec![
                    StructureNode::component("p1"),
                    StructureNode::component("p2"),
                ],
            ),
        ]));
        ArcadeModel::builder("sample", structure)
            .component(
                BasicComponent::from_mttf_mttr("st1", 2000.0, 5.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .component(
                BasicComponent::from_mttf_mttr("st2", 2000.0, 5.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .component(BasicComponent::from_mttf_mttr("res", 6000.0, 12.0).unwrap())
            .component(BasicComponent::from_mttf_mttr("p1", 500.0, 1.0).unwrap())
            .component(
                BasicComponent::from_mttf_mttr("p2", 500.0, 1.0)
                    .unwrap()
                    .with_dormancy_factor(0.0)
                    .with_operational_cost(0.1),
            )
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::FastestRepairFirst, 2)
                    .unwrap()
                    .responsible_for(["st1", "st2", "res", "p1", "p2"])
                    .with_idle_cost(1.0)
                    .with_busy_cost(0.5),
            )
            .spare_unit(SpareManagementUnit::new("pumps", ["p1"], ["p2"]).unwrap())
            .disaster(Disaster::new("d1", ["p1", "p2"]).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip_preserves_the_model() {
        let model = sample_model();
        let text = to_xml(&model);
        let restored = from_xml(&text).unwrap();
        assert_eq!(restored, model);
    }

    #[test]
    fn serialised_document_mentions_all_sections() {
        let text = to_xml(&sample_model());
        for needle in [
            "<arcade-model name=\"sample\">",
            "<components>",
            "<repair-units>",
            "strategy=\"frf\"",
            "<spare-units>",
            "<structure>",
            "<required-of required=\"1\">",
            "<disasters>",
        ] {
            assert!(text.contains(needle), "missing {needle} in\n{text}");
        }
    }

    #[test]
    fn preemptive_units_round_trip() {
        let structure = SystemStructure::new(StructureNode::component("a"));
        let model = ArcadeModel::builder("preempt", structure)
            .component(BasicComponent::from_mttf_mttr("a", 10.0, 1.0).unwrap())
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::FastestRepairFirst, 2)
                    .unwrap()
                    .responsible_for(["a"])
                    .with_discipline(QueueDiscipline::Preemptive),
            )
            .build()
            .unwrap();
        let text = to_xml(&model);
        assert!(text.contains("discipline=\"preemptive\""));
        let restored = from_xml(&text).unwrap();
        assert_eq!(restored, model);
        assert_eq!(
            restored.repair_units()[0].discipline(),
            QueueDiscipline::Preemptive
        );
        // The default discipline is not written.
        assert!(!to_xml(&sample_model()).contains("discipline"));
    }

    /// A one-unit document whose `<repair-unit>` carries `attribute`.
    fn unit_with(attribute: &str) -> String {
        format!(
            r#"<arcade-model name="x">
            <components><component name="a" mttf="10" mttr="1"/></components>
            <repair-units><repair-unit name="ru" strategy="frf" crews="1" {attribute}>
              <responsible ref="a"/></repair-unit></repair-units>
            <structure><component ref="a"/></structure>
        </arcade-model>"#
        )
    }

    fn schema_message(text: &str) -> String {
        match from_xml(text) {
            Err(XmlError::Schema { message }) => message,
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_discipline_is_rejected() {
        let message = schema_message(&unit_with(r#"discipline="yes""#));
        assert!(message.contains("discipline"), "{message}");
        assert!(message.contains("`yes`"), "{message}");
        // Every keyword the writer uses reads back.
        for discipline in DISCIPLINES {
            let text = unit_with(&format!(
                r#"discipline="{}""#,
                discipline_keyword(discipline)
            ));
            assert_eq!(
                from_xml(&text).unwrap().repair_units()[0].discipline(),
                discipline
            );
        }
    }

    #[test]
    fn initially_failed_accepts_only_true_or_false() {
        let document = |value: &str| {
            format!(
                r#"<arcade-model name="x">
                <components><component name="a" mttf="10" mttr="1" initially-failed="{value}"/>
                </components>
                <structure><component ref="a"/></structure>
            </arcade-model>"#
            )
        };
        let message = schema_message(&document("yes"));
        assert!(message.contains("component `a`"), "{message}");
        assert!(message.contains("initially-failed"), "{message}");
        for (value, failed) in [("true", true), ("false", false)] {
            let model = from_xml(&document(value)).unwrap();
            assert_eq!(model.components()[0].is_initially_failed(), failed);
        }
    }

    #[test]
    fn retired_preemptive_attribute_is_rejected() {
        for value in ["true", "false", "yes"] {
            let message = schema_message(&unit_with(&format!(r#"preemptive="{value}""#)));
            assert!(message.contains("discipline"), "{message}");
        }
    }

    #[test]
    fn priority_strategy_round_trips() {
        let structure = SystemStructure::new(StructureNode::series(vec![
            StructureNode::component("a"),
            StructureNode::component("b"),
        ]));
        let model = ArcadeModel::builder("prio", structure)
            .component(BasicComponent::from_mttf_mttr("a", 10.0, 1.0).unwrap())
            .component(BasicComponent::from_mttf_mttr("b", 10.0, 1.0).unwrap())
            .repair_unit(
                RepairUnit::new(
                    "ru",
                    RepairStrategy::Priority(vec!["b".into(), "a".into()]),
                    1,
                )
                .unwrap()
                .responsible_for(["a", "b"]),
            )
            .build()
            .unwrap();
        let restored = from_xml(&to_xml(&model)).unwrap();
        assert_eq!(restored, model);
    }

    #[test]
    fn schema_errors_are_reported() {
        assert!(matches!(from_xml("<nope/>"), Err(XmlError::Schema { .. })));
        assert!(matches!(
            from_xml("<arcade-model name=\"x\"><components/><structure/></arcade-model>"),
            Err(XmlError::Schema { .. })
        ));
        let bad_strategy = r#"<arcade-model name="x">
            <components><component name="a" mttf="10" mttr="1"/></components>
            <repair-units><repair-unit name="ru" strategy="magic" crews="1">
              <responsible ref="a"/></repair-unit></repair-units>
            <structure><component ref="a"/></structure>
        </arcade-model>"#;
        assert!(matches!(
            from_xml(bad_strategy),
            Err(XmlError::Schema { .. })
        ));
        let bad_number = r#"<arcade-model name="x">
            <components><component name="a" mttf="ten" mttr="1"/></components>
            <structure><component ref="a"/></structure>
        </arcade-model>"#;
        assert!(matches!(from_xml(bad_number), Err(XmlError::Schema { .. })));
    }

    #[test]
    fn model_errors_are_reported() {
        // References a component that is never declared.
        let text = r#"<arcade-model name="x">
            <components><component name="a" mttf="10" mttr="1"/></components>
            <structure><component ref="ghost"/></structure>
        </arcade-model>"#;
        assert!(matches!(from_xml(text), Err(XmlError::Model(_))));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!(
            from_xml("<arcade-model"),
            Err(XmlError::Parse { .. })
        ));
    }

    #[test]
    fn minimal_model_without_optional_sections() {
        let text = r#"<arcade-model name="mini">
            <components><component name="a" mttf="10" mttr="1"/></components>
            <structure><component ref="a"/></structure>
        </arcade-model>"#;
        let model = from_xml(text).unwrap();
        assert_eq!(model.name(), "mini");
        assert!(model.repair_units().is_empty());
        assert!(model.disasters().is_empty());
    }
}
